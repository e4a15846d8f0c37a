package metrics

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/stats"
)

func at(ns float64) sim.Time { return sim.Time(0).Add(sim.FromNanos(ns)) }

// TestSummaryMatchesInlineCollectors replays the exact gating the machine
// model historically applied and checks the Recorder's summary equals
// inline stats.Sample collectors fed the same values.
func TestSummaryMatchesInlineCollectors(t *testing.T) {
	var latency, wait, svc stats.Sample
	classLat := make([]stats.Sample, 2)

	obs := []struct {
		t                  float64
		class              int
		measured, inWindow bool
		lat, wait, svc     float64
	}{
		{100, 0, true, false, 500, 100, 400}, // warmup: timeline only
		{200, 1, false, true, 900, 300, 600},
		{300, 0, true, true, 550, 120, 430},
		{400, 0, true, true, 700, 250, 450},
	}
	// The reference: the collectors the machine model historically kept
	// inline, with its exact gating order.
	for _, o := range obs {
		if !o.inWindow {
			continue
		}
		if o.measured {
			latency.Add(o.lat)
		}
		classLat[o.class].Add(o.lat)
		svc.Add(o.svc)
		wait.Add(o.wait)
	}
	r := NewRecorder(Config{Classes: []string{"a", "b"}, Servers: 2})
	for i, o := range obs {
		if i == 1 {
			r.OpenWindow(at(150))
		}
		r.Complete(at(o.t), Completion{Class: o.class, Measured: o.measured, LatencyNs: o.lat, WaitNs: o.wait, ServiceNs: o.svc, Depth: 3})
	}
	r.CloseWindow(at(400))

	if r.Latency() != latency.Summarize() {
		t.Fatalf("latency summary diverged: %v vs %v", r.Latency(), latency.Summarize())
	}
	if r.Wait() != wait.Summarize() {
		t.Fatalf("wait summary diverged")
	}
	if r.ServiceMean() != svc.Mean() {
		t.Fatalf("service mean diverged")
	}
	for i := range classLat {
		if r.Class(i) != classLat[i].Summarize() {
			t.Fatalf("class %d summary diverged", i)
		}
	}
	if got := r.Wait().Count; got != 3 {
		t.Fatalf("window wait count = %d, want 3", got)
	}
	// The timeline saw all four completions, the summary only three.
	tl := r.Timeline()
	total := 0
	for _, e := range tl.Epochs {
		total += e.Completions
	}
	if total != 4 {
		t.Fatalf("timeline completions = %d, want 4", total)
	}
}

func TestEpochSlicing(t *testing.T) {
	r := NewRecorder(Config{EpochNanos: 100, MaxEpochs: 64})
	// Two completions in epoch 0, one in epoch 3.
	r.Complete(at(10), Completion{Measured: true, LatencyNs: 50, WaitNs: -1, ServiceNs: -1, Depth: 2})
	r.Complete(at(90), Completion{Measured: true, LatencyNs: 70, WaitNs: -1, ServiceNs: -1, Depth: 4})
	r.Complete(at(350), Completion{Measured: true, LatencyNs: 90, WaitNs: -1, ServiceNs: -1, Depth: -1})
	tl := r.Timeline()
	if tl.EpochNanos != 100 || len(tl.Epochs) != 4 {
		t.Fatalf("timeline = %g ns × %d epochs", tl.EpochNanos, len(tl.Epochs))
	}
	e0 := tl.Epochs[0]
	if e0.Completions != 2 || e0.Latency.Count != 2 || e0.MaxDepth != 4 || e0.MeanDepth != 3 {
		t.Fatalf("epoch 0 = %+v", e0)
	}
	if e0.ThroughputMRPS != 2.0/100*1000 {
		t.Fatalf("epoch 0 throughput = %v", e0.ThroughputMRPS)
	}
	if tl.Epochs[1].Completions != 0 || tl.Epochs[2].Completions != 0 {
		t.Fatal("interior empty epochs must be kept")
	}
	if tl.Epochs[3].Latency.P99 != 90 {
		t.Fatalf("epoch 3 p99 = %v", tl.Epochs[3].Latency.P99)
	}
	if got := tl.EpochIndex(350); got != 3 {
		t.Fatalf("EpochIndex(350) = %d", got)
	}
	if got := tl.EpochIndex(1e9); got != 3 {
		t.Fatalf("EpochIndex clamps to last, got %d", got)
	}
}

// TestEpochDoubling drives the recorder past MaxEpochs and checks that
// doubling merges slices without losing observations.
func TestEpochDoubling(t *testing.T) {
	r := NewRecorder(Config{EpochNanos: 10, MaxEpochs: 4})
	n := 0
	for ns := 5.0; ns < 300; ns += 10 { // 30 completions over 300 ns
		r.Complete(at(ns), Completion{Measured: true, LatencyNs: ns, WaitNs: -1, ServiceNs: -1, Depth: 1})
		n++
	}
	tl := r.Timeline()
	if len(tl.Epochs) > 4 {
		t.Fatalf("epochs = %d, want <= 4", len(tl.Epochs))
	}
	// 300 ns needs epoch >= 75 ns with 4 slices; doubling from 10 gives 80.
	if tl.EpochNanos != 80 {
		t.Fatalf("epoch length = %g, want 80", tl.EpochNanos)
	}
	total := 0
	for _, e := range tl.Epochs {
		total += e.Completions
	}
	if total != n {
		t.Fatalf("completions after doubling = %d, want %d", total, n)
	}
	// Latency observations survive merging: the global max must be present.
	last := tl.Epochs[len(tl.Epochs)-1]
	if last.Latency.Max != 295 {
		t.Fatalf("last epoch max = %v, want 295", last.Latency.Max)
	}
}

func TestBusyAndUtilization(t *testing.T) {
	r := NewRecorder(Config{EpochNanos: 100, MaxEpochs: 8, Servers: 2})
	r.Busy(at(50), 0, sim.FromNanos(40))
	r.Busy(at(60), 1, sim.FromNanos(60))
	r.Busy(at(150), 0, sim.FromNanos(100))
	if got := r.BusyTotal(0); got != sim.FromNanos(140) {
		t.Fatalf("busy[0] = %v", got)
	}
	if got := r.BusyTotal(1); got != sim.FromNanos(60) {
		t.Fatalf("busy[1] = %v", got)
	}
	tl := r.Timeline()
	// Epoch 0: 100 ns busy over 2×100 ns capacity = 0.5.
	if u := tl.Epochs[0].Utilization; u != 0.5 {
		t.Fatalf("epoch 0 utilization = %v", u)
	}
	if u := tl.Epochs[1].Utilization; u != 0.5 {
		t.Fatalf("epoch 1 utilization = %v", u)
	}
	if got := r.MeanUtilization(at(200)); got != 0.5 {
		t.Fatalf("mean utilization = %v", got)
	}
	if got := r.MeanUtilization(0); got != 0 {
		t.Fatal("mean utilization at t=0 must be 0")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Timeline {
		r := NewRecorder(Config{EpochNanos: 50, MaxEpochs: 8, Servers: 1})
		for i := 0; i < 200; i++ {
			ns := float64(i) * 7.3
			r.Complete(at(ns), Completion{Measured: i%3 != 0, LatencyNs: float64(i%17) * 11, WaitNs: float64(i % 5), ServiceNs: 400, Depth: i % 9})
			r.Busy(at(ns), 0, sim.FromNanos(3))
		}
		return r.Timeline()
	}
	a, b := run(), run()
	if len(a.Epochs) != len(b.Epochs) || a.EpochNanos != b.EpochNanos {
		t.Fatal("timeline shape nondeterministic")
	}
	for i := range a.Epochs {
		if a.Epochs[i] != b.Epochs[i] {
			t.Fatalf("epoch %d differs", i)
		}
	}
}

func TestEmptyTimeline(t *testing.T) {
	r := NewRecorder(Config{})
	tl := r.Timeline()
	if len(tl.Epochs) != 0 {
		t.Fatalf("empty recorder produced %d epochs", len(tl.Epochs))
	}
	if tl.EpochIndex(0) != -1 {
		t.Fatal("EpochIndex on empty timeline must be -1")
	}
	if len(tl.P99s()) != 0 {
		t.Fatal("P99s on empty timeline must be empty")
	}
}

// sampleTimeline is the reference model of the timeline's order statistics:
// one stats.Sample pair per epoch, merged with stats.Sample.Merge when the
// epoch length doubles.
type sampleTimeline struct {
	epochNanos float64
	max        int
	lat, wait  []*stats.Sample
}

func (s *sampleTimeline) complete(ns float64, c Completion) {
	idx := int(ns / s.epochNanos)
	for idx >= s.max {
		s.epochNanos *= 2
		for i := 0; 2*i < len(s.lat); i++ {
			s.lat[i], s.wait[i] = s.lat[2*i], s.wait[2*i]
			if 2*i+1 < len(s.lat) {
				s.lat[i].Merge(s.lat[2*i+1])
				s.wait[i].Merge(s.wait[2*i+1])
			}
		}
		s.lat, s.wait = s.lat[:(len(s.lat)+1)/2], s.wait[:(len(s.wait)+1)/2]
		idx = int(ns / s.epochNanos)
	}
	for len(s.lat) <= idx {
		s.lat, s.wait = append(s.lat, &stats.Sample{}), append(s.wait, &stats.Sample{})
	}
	if c.Measured && c.LatencyNs >= 0 {
		s.lat[idx].Add(c.LatencyNs)
	}
	if c.WaitNs >= 0 {
		s.wait[idx].Add(c.WaitNs)
	}
}

// TestTimelineMatchesSampleModel feeds random time-ordered completions —
// with gaps, unmeasured classes and untracked waits — to a Recorder and to
// the per-epoch stats.Sample model, across many doublings and enough values
// to span the store's capped chunks, and requires every epoch's latency and
// wait Summary to be identical.
func TestTimelineMatchesSampleModel(t *testing.T) {
	for _, tc := range []struct {
		n, maxEpochs int
		gap          float64
	}{{500, 4, 3}, {20000, 64, 1}, {200000, 16, 0.5}, {3000, 8, 400}} {
		r := NewRecorder(Config{EpochNanos: 10, MaxEpochs: tc.maxEpochs})
		ref := &sampleTimeline{epochNanos: 10, max: tc.maxEpochs}
		src := rng.New(uint64(tc.n))
		ns := 0.0
		for i := 0; i < tc.n; i++ {
			ns += src.Float64() * tc.gap
			if src.IntN(50) == 0 {
				ns += tc.gap * 200 // an idle stretch: empty epochs
			}
			c := Completion{
				Measured:  src.IntN(4) != 0,
				LatencyNs: float64(src.IntN(5000)) + src.Float64(),
				WaitNs:    float64(src.IntN(300)) - 20, // some untracked (<0)
				ServiceNs: -1,
				Depth:     -1,
			}
			t0 := at(ns)
			r.Complete(t0, c)
			ref.complete(t0.Nanos(), c)
		}
		tl := r.Timeline()
		if tl.EpochNanos != ref.epochNanos {
			t.Fatalf("n=%d: epoch length %g, model %g", tc.n, tl.EpochNanos, ref.epochNanos)
		}
		for i, e := range tl.Epochs {
			if want := ref.lat[i].Summarize(); e.Latency != want {
				t.Fatalf("n=%d epoch %d latency %+v, model %+v", tc.n, i, e.Latency, want)
			}
			if want := ref.wait[i].Summarize(); e.Wait != want {
				t.Fatalf("n=%d epoch %d wait %+v, model %+v", tc.n, i, e.Wait, want)
			}
		}
	}
}

// TestCompleteRejectsTimeGoingBack: epochs are ranges of a store kept in
// completion order, so an out-of-order completion must fail loudly.
func TestCompleteRejectsTimeGoingBack(t *testing.T) {
	r := NewRecorder(Config{})
	r.Complete(at(100), Completion{Measured: true, LatencyNs: 5, WaitNs: 1, Depth: -1})
	r.Complete(at(100), Completion{Measured: true, LatencyNs: 6, WaitNs: 1, Depth: -1}) // ties are fine
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "metrics: ") {
			t.Fatalf("panic = %q, want a metrics: message", msg)
		}
	}()
	r.Complete(at(99), Completion{Measured: true, LatencyNs: 7, WaitNs: 1, Depth: -1})
}

// TestWindowSummaryMatchesSample checks that the window's latency and wait
// summaries, read from the stores' window ranges, equal stats.Sample
// collectors fed the same gated values: with the window opening mid-run and
// closing, still open, or never opened, and with Timeline read both before
// and after the window summaries, which must not disturb the stores'
// completion order.
func TestWindowSummaryMatchesSample(t *testing.T) {
	const n = 20000
	for _, tc := range []struct {
		name        string
		open, close int // completion indexes; -1 = never
	}{
		{"mid-run", 3000, 15000},
		{"still-open", 500, -1},
		{"never-opened", -1, -1},
		{"closed-unopened", -1, 9000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder(Config{EpochNanos: 50, MaxEpochs: 16, Expect: n})
			var lat, wait stats.Sample
			src := rng.New(7)
			in := false
			for i := 0; i < n; i++ {
				if i == tc.open {
					r.OpenWindow(at(float64(i)))
					in = true
				}
				if i == tc.close {
					r.CloseWindow(at(float64(i)))
					in = false
				}
				c := Completion{
					Measured:  src.IntN(5) != 0,
					LatencyNs: float64(src.IntN(4000)) - 10, // some untracked (<0)
					WaitNs:    float64(src.IntN(200)) - 30,
					ServiceNs: -1,
					Depth:     -1,
				}
				if in && c.Measured && c.LatencyNs >= 0 {
					lat.Add(c.LatencyNs)
				}
				if in && c.WaitNs >= 0 {
					wait.Add(c.WaitNs)
				}
				r.Complete(at(float64(i)), c)
			}
			before := r.Timeline()
			if got, want := r.Latency(), lat.Summarize(); got != want {
				t.Fatalf("latency %+v, sample %+v", got, want)
			}
			if got, want := r.Wait(), wait.Summarize(); got != want {
				t.Fatalf("wait %+v, sample %+v", got, want)
			}
			if after := r.Timeline(); !reflect.DeepEqual(before, after) {
				t.Fatal("timeline changed after the window summaries were read")
			}
			if tc.open < 0 && (r.Latency().Count != 0 || r.Wait().Count != 0) {
				t.Fatal("a window that never opened recorded observations")
			}
		})
	}
}

// TestReopenWindowPanics: a second window would not be one store range.
func TestReopenWindowPanics(t *testing.T) {
	r := NewRecorder(Config{})
	r.OpenWindow(at(0))
	r.Complete(at(1), Completion{Measured: true, LatencyNs: 5, WaitNs: 1, Depth: -1})
	r.CloseWindow(at(2))
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "metrics: ") {
			t.Fatalf("panic = %q, want a metrics: message", msg)
		}
	}()
	r.OpenWindow(at(3))
}

// TestLatencyAllocatesOneExactBuffer: a window summary copies its store
// range into a scratch buffer of exactly its size, allocated on the first
// call and reused after it, and allocates nothing else.
func TestLatencyAllocatesOneExactBuffer(t *testing.T) {
	const n = 100_000
	r := NewRecorder(Config{})
	r.OpenWindow(at(0))
	src := rng.New(3)
	for i := 0; i < n; i++ {
		r.Complete(at(float64(i)), Completion{Measured: true, LatencyNs: src.ExpFloat64() * 1e3, WaitNs: 1, Depth: -1})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Latency()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 1 {
		t.Fatalf("the first Latency() made %d allocations, want 1", got)
	}
	// A large allocation is rounded up to whole 8 KiB pages.
	if got, want := after.TotalAlloc-before.TotalAlloc, uint64(8*n); got < want || got >= want+8192 {
		t.Fatalf("the first Latency() allocated %d bytes, want one %d-byte buffer", got, want)
	}
	if allocs := testing.AllocsPerRun(5, func() { r.Latency(); r.Wait() }); allocs != 0 {
		t.Fatalf("later Latency() and Wait() calls made %v allocations, want 0", allocs)
	}
}
