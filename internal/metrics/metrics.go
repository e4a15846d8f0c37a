// Package metrics is the measurement layer shared by every simulator in the
// repository: the machine model (internal/machine), the rack-scale cluster
// (internal/cluster), and the queueing models (internal/queueing) all record
// through a Recorder instead of keeping ad-hoc sample fields.
//
// A Recorder collects two views of the same run:
//
//   - Summary statistics over the measurement window (warmup excluded):
//     the headline latency, per-class latencies, pre-service wait, mean
//     per-request service occupancy, and per-server busy time. They equal
//     the stats.Sample collectors the simulators historically kept inline,
//     fed the same values in the same order, so every existing result field
//     is byte-identical.
//
//   - An epoch-sliced timeline over the whole run (warmup included): virtual
//     time is cut into fixed-length epochs, and each epoch accumulates its
//     own latency and wait samples, completion count, queue-depth
//     observations, and busy time. The timeline is what makes transients
//     visible — a load step, a burst, a degraded node — which a single
//     steady-state window averages away.
//
// The slice count is bounded: when a run outgrows MaxEpochs slices, the
// epoch length doubles and adjacent epochs merge pairwise, so the timeline
// stays a fixed number of rows for any run length while every recorded
// observation remains attributed to the slice containing it. Note the bound
// is on slice count, not bytes: epochs keep exact order statistics, so total
// memory scales with the completion count.
//
// Each latency and wait observation is stored once. Because completions
// arrive in time order, each epoch's observations are one contiguous range
// of a per-series store kept in completion order, and so are the
// measurement window's; merging two epochs joins two adjacent ranges and
// copies no values, and the store grows in chunks it never moves. A summary
// copies its range into a scratch buffer the Recorder keeps, exactly the
// size of the largest range summarized so far, and selects the percentiles
// there (stats.Moments.Summarize), leaving the store in completion order.
// Per-class latencies, which no epoch slices, keep their own stats.Sample.
// The whole layer is deterministic — it consumes no randomness and
// allocates no state that depends on wall-clock time — so identical
// simulations produce identical Timelines.
package metrics

import (
	"fmt"

	"rpcvalet/internal/sim"
	"rpcvalet/internal/stats"
)

// Defaults for Config's zero values.
const (
	// DefaultEpochNanos is the initial epoch length: 1 µs, fine enough to
	// resolve µs-scale transients; long runs double it as needed.
	DefaultEpochNanos = 1000.0
	// DefaultMaxEpochs bounds the timeline's length; beyond it the epoch
	// length doubles and adjacent epochs merge.
	DefaultMaxEpochs = 64
)

// Config sizes a Recorder.
type Config struct {
	// Classes labels the per-class latency samples (may be empty).
	Classes []string
	// Servers is the busy-time capacity normalizer: the number of serving
	// units (cores) whose combined busy time saturates an epoch's
	// utilization at 1.0. Zero disables the utilization timeline.
	Servers int
	// EpochNanos is the initial epoch length (0 = DefaultEpochNanos).
	EpochNanos float64
	// MaxEpochs bounds the number of epoch slices (0 = DefaultMaxEpochs;
	// values below 2 are raised to 2 so doubling can make progress).
	MaxEpochs int
	// Expect pre-sizes the per-class latency samples for a run expected to
	// record about this many completions, so steady-state recording never
	// grows them. Zero leaves them growing on demand.
	Expect int
}

// Completion describes one finished request, pre-measured by the simulator.
// Negative values mark observations the caller does not track.
type Completion struct {
	Class     int     // request-class index (ignored when out of range)
	Measured  bool    // class counts toward the headline latency sample
	LatencyNs float64 // end-to-end latency; <0 = not observed
	WaitNs    float64 // pre-service delay; <0 = not observed
	ServiceNs float64 // per-request server occupancy; <0 = not observed
	Depth     int     // queue-depth signal at completion; <0 = not observed
}

// Chunk sizes of a valueStore: the first chunk holds firstChunk values and
// each next one twice the last, up to maxChunk. Small recorders (one per
// cluster node) stay small; long runs allocate one chunk per maxChunk
// values.
const (
	firstChunk = 64
	maxChunk   = 1 << 16
)

// valueStore keeps one series' observations in completion order, in chunks
// that are never moved or copied once allocated.
type valueStore struct {
	chunks [][]float64 // all full except the last
	n      int
}

// add appends v to the store.
func (s *valueStore) add(v float64) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(s.chunks[last]), maxChunk)
		}
		s.chunks = append(s.chunks, make([]float64, 0, size))
		last++
	}
	s.chunks[last] = append(s.chunks[last], v)
	s.n++
}

// copyRange fills dst with the len(dst) values starting at position off.
func (s *valueStore) copyRange(dst []float64, off int) {
	for _, c := range s.chunks {
		if len(dst) == 0 {
			break
		}
		if off >= len(c) {
			off -= len(c)
			continue
		}
		k := copy(dst, c[off:])
		dst, off = dst[k:], 0
	}
}

// series is one epoch's or the measurement window's share of a valueStore:
// the m.N values from position off, and their moments.
type series struct {
	off int
	m   stats.Moments
}

// note counts v, about to be appended to the store at position pos, as the
// newest value of se. Values arrive in time order, so se's range is the
// store's tail whenever it grows.
func (se *series) note(pos int, v float64) {
	if se.m.N == 0 {
		se.off = pos
	}
	se.m.Add(v)
}

// merge folds o, the series of the epoch right after se's, into se. Their
// ranges are adjacent in the store, so the result is still one range.
func (se *series) merge(o series) {
	if se.m.N == 0 {
		se.off = o.off
	}
	se.m.Merge(o.m)
}

// summarize copies se's values into buf, whose capacity must be at least
// se.m.N, and summarizes them exactly as stats.Sample.Summarize would.
func (se *series) summarize(s *valueStore, buf []float64) stats.Summary {
	buf = buf[:se.m.N]
	s.copyRange(buf, se.off)
	return se.m.Summarize(buf)
}

// epoch is one timeline slice's accumulators.
type epoch struct {
	lat, wait   series
	completions int
	depthSum    int64
	depthN      int
	depthMax    int
	busy        sim.Duration
}

// merge folds o, the epoch right after e, into e (the epoch-doubling step).
func (e *epoch) merge(o *epoch) {
	e.lat.merge(o.lat)
	e.wait.merge(o.wait)
	e.completions += o.completions
	e.depthSum += o.depthSum
	e.depthN += o.depthN
	if o.depthMax > e.depthMax {
		e.depthMax = o.depthMax
	}
	e.busy += o.busy
}

// Recorder accumulates one run's measurements. The zero value is not useful;
// create one with NewRecorder. Recorders are not safe for concurrent use —
// like the engine they observe, one Recorder belongs to one simulation
// goroutine.
type Recorder struct {
	cfg        Config
	epochNanos float64
	epochs     []*epoch
	// Every latency and wait observation, in completion order, and the
	// newest completion time, which Complete requires to never go back.
	latVals, waitVals valueStore
	last              sim.Time

	// Summary collectors (measurement window only). latency and wait are
	// the window's ranges of latVals and waitVals.
	latency, wait    series
	svc              stats.Moments
	class            []stats.Sample
	busyTotal        []sim.Duration
	winStart, winEnd sim.Time
	inWindow         bool

	// scratch is the summaries' copy buffer: exactly the size of the
	// largest range summarized so far.
	scratch []float64
}

// NewRecorder builds a Recorder for one run.
func NewRecorder(cfg Config) *Recorder {
	if cfg.EpochNanos <= 0 {
		cfg.EpochNanos = DefaultEpochNanos
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = DefaultMaxEpochs
	}
	if cfg.MaxEpochs < 2 {
		cfg.MaxEpochs = 2
	}
	r := &Recorder{
		cfg:        cfg,
		epochNanos: cfg.EpochNanos,
		class:      make([]stats.Sample, len(cfg.Classes)),
		busyTotal:  make([]sim.Duration, cfg.Servers),
	}
	if cfg.Expect > 0 {
		for i := range r.class {
			r.class[i].Grow(cfg.Expect)
		}
	}
	return r
}

// OpenWindow starts the summary measurement window at time t (after warmup).
// A run has one window: its latency and wait observations must stay one
// range of the stores, so reopening a window that recorded any panics.
func (r *Recorder) OpenWindow(t sim.Time) {
	if !r.inWindow && r.latency.m.N+r.wait.m.N > 0 {
		panic("metrics: reopening a measurement window that recorded observations")
	}
	r.winStart = t
	r.inWindow = true
}

// CloseWindow ends the summary measurement window at time t.
func (r *Recorder) CloseWindow(t sim.Time) {
	r.winEnd = t
	r.inWindow = false
}

// Window returns the summary window's bounds (zero until opened/closed).
func (r *Recorder) Window() (start, end sim.Time) { return r.winStart, r.winEnd }

// epochAt returns the slice covering time t, doubling the epoch length (and
// pairwise-merging existing slices) whenever t falls beyond MaxEpochs.
func (r *Recorder) epochAt(t sim.Time) *epoch {
	ns := t.Nanos()
	if ns < 0 {
		ns = 0
	}
	idx := int(ns / r.epochNanos)
	for idx >= r.cfg.MaxEpochs {
		r.double()
		idx = int(ns / r.epochNanos)
	}
	for len(r.epochs) <= idx {
		r.epochs = append(r.epochs, &epoch{})
	}
	return r.epochs[idx]
}

// double doubles the epoch length and merges adjacent slices pairwise.
func (r *Recorder) double() {
	r.epochNanos *= 2
	half := (len(r.epochs) + 1) / 2
	merged := make([]*epoch, half)
	for i := 0; i < half; i++ {
		e := r.epochs[2*i]
		if 2*i+1 < len(r.epochs) {
			e.merge(r.epochs[2*i+1])
		}
		merged[i] = e
	}
	r.epochs = merged
}

// Complete records one finished request at virtual time t. The timeline
// always records it; the summary collectors record it only while the
// measurement window is open — the exact gating the simulators historically
// applied inline. Completions must arrive in nondecreasing time order (every
// simulator completes requests on its engine's clock); Complete panics if t
// goes backwards.
func (r *Recorder) Complete(t sim.Time, c Completion) {
	if t < r.last {
		panic(fmt.Sprintf("metrics: completion at %v before the previous one at %v", t, r.last))
	}
	r.last = t
	e := r.epochAt(t)
	e.completions++
	if c.Measured && c.LatencyNs >= 0 {
		if r.inWindow {
			r.latency.note(r.latVals.n, c.LatencyNs)
		}
		e.lat.note(r.latVals.n, c.LatencyNs)
		r.latVals.add(c.LatencyNs)
	}
	if c.WaitNs >= 0 {
		if r.inWindow {
			r.wait.note(r.waitVals.n, c.WaitNs)
		}
		e.wait.note(r.waitVals.n, c.WaitNs)
		r.waitVals.add(c.WaitNs)
	}
	if r.inWindow {
		if c.Class >= 0 && c.Class < len(r.class) && c.LatencyNs >= 0 {
			r.class[c.Class].Add(c.LatencyNs)
		}
		if c.ServiceNs >= 0 {
			r.svc.Add(c.ServiceNs)
		}
	}
	if c.Depth >= 0 {
		e.depthSum += int64(c.Depth)
		e.depthN++
		if c.Depth > e.depthMax {
			e.depthMax = c.Depth
		}
	}
}

// Depth records a standalone queue-depth observation at time t (for callers
// that sample depth outside completion events).
func (r *Recorder) Depth(t sim.Time, depth int) {
	if depth < 0 {
		return
	}
	e := r.epochAt(t)
	e.depthSum += int64(depth)
	e.depthN++
	if depth > e.depthMax {
		e.depthMax = depth
	}
}

// Busy attributes d of busy time on serving unit `server` to the epoch
// containing t (by convention the time the busy span was committed). Spans
// are not split across epoch boundaries, so an epoch's utilization is a
// first-order attribution, not an integral; with epochs much longer than a
// single span the distinction is negligible.
func (r *Recorder) Busy(t sim.Time, server int, d sim.Duration) {
	if server >= 0 && server < len(r.busyTotal) {
		r.busyTotal[server] += d
	}
	r.epochAt(t).busy += d
}

// BusyTotal reports the cumulative busy time recorded for one serving unit.
func (r *Recorder) BusyTotal(server int) sim.Duration {
	if server < 0 || server >= len(r.busyTotal) {
		return 0
	}
	return r.busyTotal[server]
}

// MeanUtilization reports the average busy fraction across all serving
// units, measured against the clock value now.
func (r *Recorder) MeanUtilization(now sim.Time) float64 {
	if now == 0 || len(r.busyTotal) == 0 {
		return 0
	}
	var busy sim.Duration
	for _, b := range r.busyTotal {
		busy += b
	}
	return float64(busy) / float64(now) / float64(len(r.busyTotal))
}

// --- Summary accessors ----------------------------------------------------

// scratchOf returns the scratch buffer cut to n values, replacing it by one
// of exactly n when it is too small.
func (r *Recorder) scratchOf(n int) []float64 {
	if cap(r.scratch) < n {
		r.scratch = make([]float64, n)
	}
	return r.scratch[:n]
}

// Latency summarizes the window's headline (measured-class) latencies.
func (r *Recorder) Latency() stats.Summary {
	return r.latency.summarize(&r.latVals, r.scratchOf(r.latency.m.N))
}

// Class summarizes one request class's latency sample.
func (r *Recorder) Class(i int) stats.Summary { return r.class[i].Summarize() }

// Wait summarizes the window's pre-service delays.
func (r *Recorder) Wait() stats.Summary {
	return r.wait.summarize(&r.waitVals, r.scratchOf(r.wait.m.N))
}

// ServiceMean reports the mean per-request service occupancy (S̄).
func (r *Recorder) ServiceMean() float64 { return r.svc.Mean() }

// --- Timeline -------------------------------------------------------------

// EpochStats is one rendered timeline slice.
type EpochStats struct {
	StartNanos     float64
	EndNanos       float64
	Completions    int
	ThroughputMRPS float64       // completions over the epoch length
	Latency        stats.Summary // measured-class latency within the epoch
	Wait           stats.Summary // pre-service delay within the epoch
	MeanDepth      float64       // mean queue-depth observation
	MaxDepth       int
	Utilization    float64 // busy time / (epoch × servers); 0 when untracked
}

// Timeline is the rendered epoch series of one run.
type Timeline struct {
	// EpochNanos is the final epoch length after any doubling.
	EpochNanos float64
	Epochs     []EpochStats
}

// Timeline renders the recorder's epoch series. Trailing empty epochs are
// trimmed; interior empty epochs (a stalled system) are kept, zero-valued,
// so indices remain proportional to time.
func (r *Recorder) Timeline() Timeline {
	last := -1
	for i, e := range r.epochs {
		if e.completions > 0 || e.depthN > 0 || e.busy > 0 {
			last = i
		}
	}
	tl := Timeline{EpochNanos: r.epochNanos}
	if last < 0 {
		return tl
	}
	tl.Epochs = make([]EpochStats, last+1)
	size := 0
	for _, e := range r.epochs[:last+1] {
		size = max(size, e.lat.m.N, e.wait.m.N)
	}
	buf := r.scratchOf(size)
	for i := 0; i <= last; i++ {
		e := r.epochs[i]
		es := EpochStats{
			StartNanos:     float64(i) * r.epochNanos,
			EndNanos:       float64(i+1) * r.epochNanos,
			Completions:    e.completions,
			ThroughputMRPS: float64(e.completions) / r.epochNanos * 1000,
			Latency:        e.lat.summarize(&r.latVals, buf),
			Wait:           e.wait.summarize(&r.waitVals, buf),
			MaxDepth:       e.depthMax,
		}
		if e.depthN > 0 {
			es.MeanDepth = float64(e.depthSum) / float64(e.depthN)
		}
		if r.cfg.Servers > 0 {
			es.Utilization = e.busy.Nanos() / (r.epochNanos * float64(r.cfg.Servers))
		}
		tl.Epochs[i] = es
	}
	return tl
}

// EpochIndex returns the index of the epoch containing time ns, clamped to
// the timeline's bounds (-1 when the timeline is empty).
func (t Timeline) EpochIndex(ns float64) int {
	if len(t.Epochs) == 0 || t.EpochNanos <= 0 {
		return -1
	}
	i := int(ns / t.EpochNanos)
	if i < 0 {
		i = 0
	}
	if i >= len(t.Epochs) {
		i = len(t.Epochs) - 1
	}
	return i
}

// P99s extracts each epoch's p99 latency (0 for empty epochs), a convenient
// series for transient-recovery analysis and sparkline rendering.
func (t Timeline) P99s() []float64 {
	out := make([]float64, len(t.Epochs))
	for i, e := range t.Epochs {
		out[i] = e.Latency.P99
	}
	return out
}
