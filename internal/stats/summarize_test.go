package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"rpcvalet/internal/rng"
)

// sameFloat reports whether a and b are equal by ==, or both NaN. -0 and +0
// are equal here as they are to sort.Float64s, which may put either first.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// sortedSummary is the reference Summarize: sort a copy with sort.Float64s
// and read the four nearest ranks.
func sortedSummary(values []float64) Summary {
	var m Moments
	for _, v := range values {
		m.Add(v)
	}
	sorted := slices.Clone(values)
	sort.Float64s(sorted)
	return Summary{
		Count:  m.N,
		Mean:   m.Mean(),
		Min:    m.Min,
		Max:    m.Max,
		P50:    quantile(sorted, 0.50),
		P90:    quantile(sorted, 0.90),
		P99:    quantile(sorted, 0.99),
		P999:   quantile(sorted, 0.999),
		StdDev: math.Sqrt(m.Variance()),
	}
}

// checkSummarize runs Moments.Summarize on a copy of values and requires
// every field to equal the sorted reference's, and the copy to still hold
// the same values.
func checkSummarize(t *testing.T, name string, values []float64) {
	t.Helper()
	want := sortedSummary(values)
	var m Moments
	for _, v := range values {
		m.Add(v)
	}
	work := slices.Clone(values)
	got := m.Summarize(work)
	gf := []float64{float64(got.Count), got.Mean, got.Min, got.Max, got.P50, got.P90, got.P99, got.P999, got.StdDev}
	wf := []float64{float64(want.Count), want.Mean, want.Min, want.Max, want.P50, want.P90, want.P99, want.P999, want.StdDev}
	for i := range gf {
		if !sameFloat(gf[i], wf[i]) {
			t.Fatalf("%s: Summarize = %+v, sorted reference %+v", name, got, want)
		}
	}
	sort.Float64s(work)
	ref := slices.Clone(values)
	sort.Float64s(ref)
	for i := range work {
		if !sameFloat(work[i], ref[i]) {
			t.Fatalf("%s: Summarize changed the values, not just their order", name)
		}
	}
}

// summarizeShapes are the input orders and value mixes the property grid
// covers.
var summarizeShapes = []struct {
	name string
	gen  func(r *rng.Source, n int) []float64
}{
	{"random", func(r *rng.Source, n int) []float64 {
		return fill(n, func(int) float64 { return r.ExpFloat64() * 1e3 })
	}},
	{"duplicates", func(r *rng.Source, n int) []float64 {
		return fill(n, func(int) float64 { return float64(r.IntN(4)) })
	}},
	{"equal", func(_ *rng.Source, n int) []float64 {
		return fill(n, func(int) float64 { return 7 })
	}},
	{"sorted", func(_ *rng.Source, n int) []float64 {
		return fill(n, func(i int) float64 { return float64(i) })
	}},
	{"reversed", func(_ *rng.Source, n int) []float64 {
		return fill(n, func(i int) float64 { return float64(n - i) })
	}},
	{"organ-pipe", func(_ *rng.Source, n int) []float64 {
		return fill(n, func(i int) float64 { return float64(min(i, n-1-i)) })
	}},
	{"nan", func(r *rng.Source, n int) []float64 {
		return fill(n, func(int) float64 {
			if r.IntN(7) == 0 {
				return math.NaN()
			}
			return r.Float64()
		})
	}},
	{"signed-zero", func(r *rng.Source, n int) []float64 {
		return fill(n, func(i int) float64 {
			switch r.IntN(4) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return float64(r.IntN(3)) - 1
		})
	}},
}

// fill returns the n values f(0), …, f(n-1).
func fill(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// TestSummarizeMatchesSort is the selection's equivalence property: for
// every size and shape, each Summary field equals the one a full
// sort.Float64s and nearest-rank lookup would give.
func TestSummarizeMatchesSort(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{0, 1, 2, 3, insertionMax, insertionMax + 1, 100, 1001, 1 << 16} {
		for _, sh := range summarizeShapes {
			checkSummarize(t, fmt.Sprintf("n=%d/%s", n, sh.name), sh.gen(r, n))
		}
	}
	for i := 0; i < 300; i++ {
		n := r.IntN(3000)
		sh := summarizeShapes[r.IntN(len(summarizeShapes))]
		checkSummarize(t, fmt.Sprintf("trial %d n=%d/%s", i, n, sh.name), sh.gen(r, n))
	}
}

// killerInput builds an input on which every partitioning round removes
// only two values from the low end, so selecting any rank above them runs
// through the whole depth budget. It plays partition against "gas" values:
// each round, the two values partition will compare first are fixed to the
// next smallest numbers, which makes the median of three the range's second
// smallest value; values never fixed keep their distinct large gas values.
func killerInput(t *testing.T, n int) []float64 {
	const gas = 1e12
	a := fill(n, func(i int) float64 { return gas + float64(i) })
	input := slices.Clone(a)
	next := 0.0
	for lo := 0; n-lo > insertionMax; lo += 2 {
		sub := a[lo:]
		for _, pos := range []int{1, len(sub) / 2} {
			id := int(sub[pos] - gas)
			sub[pos], input[id] = next, next
			next++
		}
		if cut := partition(sub); cut != 2 {
			t.Fatalf("round at %d cut %d values off, want 2", lo, cut)
		}
	}
	return input
}

// TestSummarizeDepthBudget runs selection on an input that defeats the
// median-of-three pivot: the depth budget must run out, the sort fallback
// must take over, and the Summary must still equal the sorted reference.
func TestSummarizeDepthBudget(t *testing.T) {
	fallbacks := 0
	defer func(f func([]float64)) { sortFallback = f }(sortFallback)
	sortFallback = func(a []float64) {
		fallbacks++
		sort.Float64s(a)
	}
	for _, n := range []int{64, 1000, 1 << 16} {
		fallbacks = 0
		checkSummarize(t, fmt.Sprintf("killer n=%d", n), killerInput(t, n))
		if fallbacks == 0 {
			t.Fatalf("n=%d: the adversarial input never exhausted the depth budget", n)
		}
	}
	// An ordinary input never needs the fallback.
	fallbacks = 0
	checkSummarize(t, "random", summarizeShapes[0].gen(rng.New(3), 1<<16))
	if fallbacks != 0 {
		t.Fatalf("random input fell back to sorting %d times", fallbacks)
	}
}

// BenchmarkSummarize measures one Summary of 1M exponential latencies by
// selection, against a full sort.Float64s of the same values for reference.
func BenchmarkSummarize(b *testing.B) {
	const n = 1 << 20
	r := rng.New(1)
	values := fill(n, func(int) float64 { return r.ExpFloat64() * 1e3 })
	var m Moments
	for _, v := range values {
		m.Add(v)
	}
	work := make([]float64, n)
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			copy(work, values)
			m.Summarize(work)
		}
	})
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			copy(work, values)
			sort.Float64s(work)
		}
	})
}
