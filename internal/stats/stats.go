// Package stats collects latency samples and computes the tail statistics
// the paper reports (99th-percentile latency as a function of throughput).
//
// Two collectors are provided. Sample keeps every observation and computes
// exact order statistics; it is the default for experiment-sized runs
// (hundreds of thousands of samples). A Summary's four percentiles come from
// Moments.Summarize, which selects the four nearest ranks in place instead
// of sorting: linear time in practice, O(n log n) at worst, and the same
// values a full sort would give. Collectors that keep their observations
// elsewhere (internal/metrics) summarize through it too. Histogram is an
// HDR-style logarithmically-bucketed histogram with bounded memory and a
// configurable relative error, for very long runs. The test suite cross-validates the two
// against each other.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Moments are the running aggregates of a set of observations: count, sum,
// sum of squares and extremes — everything a Summary needs besides the order
// statistics. Collectors that store their observations elsewhere keep
// Moments beside them and fold them exactly as Sample does.
type Moments struct {
	N                    int
	Sum, SumSq, Min, Max float64
}

// Add folds one observation in.
func (m *Moments) Add(v float64) {
	if m.N == 0 || v < m.Min {
		m.Min = v
	}
	if m.N == 0 || v > m.Max {
		m.Max = v
	}
	m.N++
	m.Sum += v
	m.SumSq += v * v
}

// Merge folds o in, as if each of o's observations had been added.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 || o.Min < m.Min {
		m.Min = o.Min
	}
	if m.N == 0 || o.Max > m.Max {
		m.Max = o.Max
	}
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
}

// Mean returns the arithmetic mean, or 0 when empty.
func (m Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// Variance returns the population variance, or 0 when empty.
func (m Moments) Variance() float64 {
	n := float64(m.N)
	if n == 0 {
		return 0
	}
	mean := m.Sum / n
	v := m.SumSq/n - mean*mean
	if v < 0 { // floating-point guard
		return 0
	}
	return v
}

// Summarize builds the Summary of the observations these moments describe.
// values must hold exactly those observations, in any order; Summarize
// reorders them in place. Each percentile is the nearest-rank order
// statistic in sort.Float64s's order (NaN first), found by selection:
// P50, P90, P99 and P999 in turn, each search confined to the values after
// the previous rank.
func (m Moments) Summarize(values []float64) Summary {
	s := Summary{
		Count:  m.N,
		Mean:   m.Mean(),
		Min:    m.Min,
		Max:    m.Max,
		StdDev: math.Sqrt(m.Variance()),
	}
	n := len(values)
	if n == 0 {
		return s
	}
	// NaNs order first; gathering them up front lets selection compare the
	// rest with <.
	lo := 0
	for i, v := range values {
		if v != v {
			values[i], values[lo] = values[lo], v
			lo++
		}
	}
	for _, q := range []struct {
		p   float64
		dst *float64
	}{{0.50, &s.P50}, {0.90, &s.P90}, {0.99, &s.P99}, {0.999, &s.P999}} {
		// values[:lo] are all ordered before values[lo:].
		k := rank(q.p, n)
		if k >= lo {
			selectRank(values[lo:], k-lo)
			lo = k + 1
		}
		*q.dst = values[k]
	}
	return s
}

// rank returns the 0-based nearest rank of the p-quantile among n > 0
// ascending values.
func rank(p float64, n int) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return n - 1
	}
	return max(int(math.Ceil(p*float64(n)))-1, 0)
}

// quantile returns the p-quantile of ascending values by the nearest-rank
// method, or 0 when there are none.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))]
}

// selectRank reorders a, which holds no NaN, so that a[k] is its rank-k
// value, with no value before it larger and none after it smaller
// (introselect). After 2·log2(len(a)) partitioning rounds it sorts what is
// left instead, so adversarial inputs stay O(n log n).
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > insertionMax; budget-- {
		if budget == 0 {
			sortFallback(a[lo:hi])
			return
		}
		if cut := lo + partition(a[lo:hi]); k < cut {
			hi = cut
		} else {
			lo = cut
		}
	}
	insertionSort(a[lo:hi])
}

// insertionMax is the range length below which selection sorts by
// insertion.
const insertionMax = 12

// sortFallback sorts a range whose selection ran out of depth budget.
// Tests swap it to observe the fallback.
var sortFallback = sort.Float64s

// partition moves the median of a[1], a[len/2] and a[len-1] to a[0] and
// splits a around that pivot (Hoare), returning cut with 0 < cut < len(a),
// no value of a[:cut] above the pivot and none of a[cut:] below it. Values
// equal to the pivot stop both scans, so duplicates split evenly. The
// median of three bounds both scans, so they need no index checks. len(a)
// must be at least 4.
func partition(a []float64) int {
	x, y, z := 1, len(a)/2, len(a)-1
	m := y
	switch {
	case a[x] < a[y]:
		if a[y] >= a[z] {
			m = z
			if a[x] >= a[z] {
				m = x
			}
		}
	case a[x] < a[z]:
		m = x
	case a[y] < a[z]:
		m = z
	}
	a[0], a[m] = a[m], a[0]
	p := a[0]
	i, j := 1, len(a)
	for {
		for a[i] < p {
			i++
		}
		j--
		for p < a[j] {
			j--
		}
		if i >= j {
			return i
		}
		a[i], a[j] = a[j], a[i]
		i++
	}
}

// insertionSort sorts a short range in place.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Sample accumulates float64 observations and computes exact statistics.
// The zero value is ready to use.
type Sample struct {
	values []float64
	sorted bool
	m      Moments
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.m.Add(v)
	s.values = append(s.values, v)
	s.sorted = false
}

// Grow pre-sizes the sample to hold at least n observations without
// reallocating, for collectors whose expected count is known up front (a
// run's Measure target). It never shrinks and never drops observations.
func (s *Sample) Grow(n int) {
	if n <= cap(s.values) {
		return
	}
	values := make([]float64, len(s.values), n)
	copy(values, s.values)
	s.values = values
}

// Count reports the number of observations recorded.
func (s *Sample) Count() int { return len(s.values) }

// Sum returns the running sum of all observations.
func (s *Sample) Sum() float64 { return s.m.Sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Sample) Mean() float64 { return s.m.Mean() }

// Variance returns the population variance, or 0 when empty.
func (s *Sample) Variance() float64 { return s.m.Variance() }

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 when empty.
func (s *Sample) Min() float64 { return s.m.Min }

// Max returns the largest observation, or 0 when empty.
func (s *Sample) Max() float64 { return s.m.Max }

// sort orders the observations in place, once per batch of Adds.
func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) using the nearest-rank method
// on the sorted observations. It returns 0 when the sample is empty.
func (s *Sample) Quantile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return quantile(s.values, p)
}

// P99 is shorthand for Quantile(0.99), the paper's tail-latency metric.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// P50 is shorthand for Quantile(0.50).
func (s *Sample) P50() float64 { return s.Quantile(0.50) }

// Reset discards all observations.
func (s *Sample) Reset() {
	s.values = s.values[:0]
	s.sorted = false
	s.m = Moments{}
}

// Values returns a copy of the recorded observations: in insertion order,
// sorted after a Quantile, reordered after a Summarize. The copy is the
// caller's to keep: mutating it cannot corrupt the collector's internal
// state.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Merge folds all of o's observations into s, as if every o.Add had been
// replayed onto s in insertion order. o is unchanged. Merging an empty
// sample is a no-op.
func (s *Sample) Merge(o *Sample) {
	if o == nil || len(o.values) == 0 {
		return
	}
	s.m.Merge(o.m)
	s.values = append(s.values, o.values...)
	s.sorted = false
}

// Summary is a compact set of tail statistics, suitable for tables.
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P90, P99  float64
	P999           float64
	StdDev         float64
}

// Summarize computes a Summary from the sample. It selects the percentiles
// in place, so the observations are left in no particular order.
func (s *Sample) Summarize() Summary {
	s.sorted = false
	return s.m.Summarize(s.values)
}

func (m Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f p99.9=%.1f max=%.1f",
		m.Count, m.Mean, m.P50, m.P99, m.P999, m.Max)
}

// Histogram is a log-bucketed histogram with bounded relative error,
// in the spirit of HdrHistogram. Values are assigned to buckets whose
// boundaries grow geometrically, so quantile estimates carry a relative
// error of at most the configured precision.
type Histogram struct {
	min, max    float64
	growth      float64 // bucket boundary growth factor (1 + 2·precision)
	logGrowth   float64
	counts      []uint64
	total       uint64
	underflow   uint64
	overflow    uint64
	sum         float64
	observedMax float64
	observedMin float64
}

// NewHistogram creates a Histogram covering [min, max] with the given
// relative precision (e.g. 0.01 for 1%). It panics on invalid bounds, since
// a histogram with a broken domain would silently corrupt results.
func NewHistogram(min, max, precision float64) *Histogram {
	if !(min > 0) || !(max > min) || !(precision > 0 && precision < 1) {
		panic(fmt.Sprintf("stats: invalid histogram domain [%g,%g] precision %g", min, max, precision))
	}
	growth := 1 + 2*precision
	n := int(math.Ceil(math.Log(max/min)/math.Log(growth))) + 1
	return &Histogram{
		min:       min,
		max:       max,
		growth:    growth,
		logGrowth: math.Log(growth),
		counts:    make([]uint64, n),
	}
}

// bucket returns the bucket index for v, assuming min ≤ v ≤ max.
func (h *Histogram) bucket(v float64) int {
	idx := int(math.Log(v/h.min) / h.logGrowth)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	return idx
}

// Add records one observation. Out-of-domain values are tallied in
// underflow/overflow counters rather than dropped.
func (h *Histogram) Add(v float64) {
	if h.total == 0 || v > h.observedMax {
		h.observedMax = v
	}
	if h.total == 0 || v < h.observedMin {
		h.observedMin = v
	}
	h.total++
	h.sum += v
	switch {
	case v < h.min:
		h.underflow++
	case v > h.max:
		h.overflow++
	default:
		h.counts[h.bucket(v)]++
	}
}

// Count reports the number of observations recorded (including out-of-domain
// ones).
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the exact arithmetic mean of all recorded observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observation recorded.
func (h *Histogram) Max() float64 { return h.observedMax }

// Min returns the smallest observation recorded.
func (h *Histogram) Min() float64 { return h.observedMin }

// Quantile estimates the p-quantile. Underflowed observations count as min,
// overflowed ones as the observed maximum.
func (h *Histogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	if p >= 1 {
		return h.observedMax
	}
	target := uint64(math.Ceil(p * float64(h.total)))
	if target == 0 {
		target = 1
	}
	cum := h.underflow
	if cum >= target {
		return h.observedMin
	}
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			// Geometric midpoint of the bucket bounds the relative error.
			lo := h.min * math.Pow(h.growth, float64(i))
			hi := lo * h.growth
			return math.Sqrt(lo * hi)
		}
	}
	return h.observedMax
}

// P99 is shorthand for Quantile(0.99).
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Merge folds all of o's observations into h, as if every o.Add had been
// replayed onto h. The two histograms must share a domain (min, max,
// precision); merging across domains would silently redistribute mass, so it
// is an error. o is unchanged; merging an empty histogram is a no-op.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if o.min != h.min || o.max != h.max || o.growth != h.growth {
		return fmt.Errorf("stats: merging histogram domain [%g,%g]×%g into [%g,%g]×%g",
			o.min, o.max, o.growth, h.min, h.max, h.growth)
	}
	if o.total == 0 {
		return nil
	}
	if h.total == 0 || o.observedMax > h.observedMax {
		h.observedMax = o.observedMax
	}
	if h.total == 0 || o.observedMin < h.observedMin {
		h.observedMin = o.observedMin
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.underflow += o.underflow
	h.overflow += o.overflow
	h.sum += o.sum
	return nil
}

// Reset discards all observations, retaining the configured domain.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.underflow, h.overflow = 0, 0, 0
	h.sum, h.observedMax, h.observedMin = 0, 0, 0
}
