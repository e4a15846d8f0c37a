package cluster

import (
	"testing"

	"rpcvalet/internal/sim"
)

// marginalAllocsPerRequest isolates the steady-state per-request allocation
// cost from fixed setup by differencing two run lengths, exactly like the
// machine-level test (see internal/machine/alloc_test.go for the method).
func marginalAllocsPerRequest(t *testing.T, run func(measure int)) float64 {
	t.Helper()
	const base, big = 4000, 24000
	baseAllocs := testing.AllocsPerRun(2, func() { run(base) })
	bigAllocs := testing.AllocsPerRun(2, func() { run(big) })
	return (bigAllocs - baseAllocs) / float64(big-base)
}

// TestAllocsPerRequest pins the per-request allocation cost of every
// execution shape, four nodes each (two-tier: two racks of two).
//
// On one engine the measured marginal cost is ~0.32 allocations per request
// — five recorders' worth (four nodes plus the front) of amortized
// epoch-timeline sample growth, nothing O(1) per request — so the budget
// sits at 0.5: any real per-request allocation reads ≥1.0.
//
// Sharded runs pay per-round costs the serial engine does not (barrier
// wakeups, channel operations in the goroutine runtime), and rounds scale
// with simulated time — measured ~0.58 per request — so the budget is
// looser, but still close enough to one that the pooled trackers crossing
// the cut cannot silently start allocating per message.
func TestAllocsPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		racks  int
		shards int
		budget float64
	}{
		{"flat-serial", 0, 0, 0.5},
		{"flat-sharded", 0, 2, 1.2},
		{"two-tier-serial", 2, 0, 0.5},
		{"two-tier-sharded", 2, 2, 1.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			per := marginalAllocsPerRequest(t, func(measure int) {
				cfg := baseConfig(4, JSQ{D: 2}, 0.6)
				if tc.racks > 0 {
					cfg.Racks = tc.racks
					cfg.GlobalPolicy = JSQ{D: FullScan}
					cfg.GlobalHop = 500 * sim.Nanosecond
				}
				cfg.Shards = tc.shards
				cfg.Measure = measure
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			if per > tc.budget {
				t.Errorf("steady-state allocations per request = %.4f, budget %.1f", per, tc.budget)
			}
			t.Logf("%.4f allocations per request", per)
		})
	}
}
