package machine

import (
	"testing"

	"rpcvalet/internal/workload"
)

// marginalAllocsPerRequest measures the steady-state allocation cost of one
// simulated request by differencing two run lengths: total allocations grow
// with Measure only through the per-request hot path, so
// (allocs(big) - allocs(base)) / (big - base) isolates it from the fixed
// setup cost (machine build, buffers, pre-sized queues) that dominates any
// absolute count. Pre-sizing from Config.Measure stays O(1) allocations per
// run — bigger runs allocate bigger slices, not more of them — so it cancels
// too.
func marginalAllocsPerRequest(t *testing.T, run func(measure int)) float64 {
	t.Helper()
	const base, big = 4000, 24000
	baseAllocs := testing.AllocsPerRun(2, func() { run(base) })
	bigAllocs := testing.AllocsPerRun(2, func() { run(big) })
	return (bigAllocs - baseAllocs) / float64(big-base)
}

// TestSteadyStateAllocsPerRequest pins the tentpole invariant: with tracing
// off, the per-request simulation path allocates nothing. The measured
// marginal cost is ~0.005 allocations per request, all amortized growth of
// buffers whose size follows the completion count — chiefly the epoch
// timeline's value-store chunks, which are appended, never copied, so
// re-bucketing the timeline allocates nothing — and there is no
// O(1)-per-request allocation left. The 0.15 budget holds that line while
// catching any real regression: a single closure, boxed value, or map
// insert per request would read ≥1.0.
func TestSteadyStateAllocsPerRequest(t *testing.T) {
	for _, mode := range []Mode{ModeSingleQueue, ModePartitioned, ModeSoftware} {
		t.Run(mode.String(), func(t *testing.T) {
			per := marginalAllocsPerRequest(t, func(measure int) {
				cfg := testConfig(mode, workload.HERD(), 5)
				cfg.Warmup = 500
				cfg.Measure = measure
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if per > 0.15 {
				t.Errorf("steady-state allocations per request = %.4f, budget 0.15", per)
			}
		})
	}
}
