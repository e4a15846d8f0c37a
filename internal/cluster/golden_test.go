package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rpcvalet/internal/machine"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/trace"
)

// runnerGolden pins every execution shape of Run — flat and two-tier, each
// on one engine and sharded — to a digest of its whole Result (timelines and
// tail spans included) together with the full, unsampled trace event stream.
// Each row mixes node plans, carries a node fault and, on two-tier rows, a
// rack fault whose pause also freezes the rack balancer. Any change to the
// runner that moves a single event, depth or float fails here. The two
// sharded two-tier rows coincide: racks-as-shards never tell their rack
// tiers of completions (ROADMAP), so a stale rack view's snapshot equals
// its ever-growing live count.
var runnerGolden = map[string]string{
	"flat/serial/live":       "a212676e6da52535",
	"flat/serial/stale":      "42c34499c15ee682",
	"flat/sharded/live":      "6ea36b7eefec97d6",
	"flat/sharded/stale":     "3ad923615cff26c0",
	"two-tier/serial/live":   "f1350bb7f8fce3b6",
	"two-tier/serial/stale":  "7087fbd793c9d6c6",
	"two-tier/sharded/live":  "50789ed5ed4d6ac1",
	"two-tier/sharded/stale": "50789ed5ed4d6ac1",
}

// goldenConfig builds one TestRunnerGolden row.
func goldenConfig(twoTier, sharded, stale bool) Config {
	cfg := baseConfig(8, JSQ{D: 2}, 0.75)
	cfg.Warmup = 200
	cfg.Measure = 3000
	cfg.TailSamples = 8
	plans := make([]*machine.Plan, cfg.Nodes)
	plans[2] = machine.PlanPartitioned()
	plans[7] = machine.PlanPartitioned()
	cfg.NodePlans = plans
	cfg.Faults = []NodeFault{{Node: 1, Slowdown: 1.5, Pauses: []machine.Pause{{Start: 8 * sim.Microsecond, Dur: 3 * sim.Microsecond}}}}
	if stale {
		cfg.SampleEvery = 2 * cfg.Hop
	}
	if twoTier {
		cfg.Racks = 2
		cfg.GlobalPolicy = JSQ{D: FullScan}
		cfg.GlobalHop = 300 * sim.Nanosecond
		cfg.Faults = append(cfg.Faults, NodeFault{Node: 1, Rack: true, Slowdown: 1.2,
			Pauses: []machine.Pause{{Start: 15 * sim.Microsecond, Dur: 4 * sim.Microsecond}}})
		if stale && !sharded {
			cfg.GlobalSampleEvery = 3 * cfg.Hop
		}
	}
	if sharded {
		// Three groups over eight nodes: an uneven flat partition; a two-tier
		// run shards by rack whatever the count.
		cfg.Shards = 3
	}
	return cfg
}

// TestRunnerGolden is the runner's byte-level safety net: for every
// topology × engine partition × view freshness, the digest of the Result and
// of the whole trace stream must match the recorded one.
func TestRunnerGolden(t *testing.T) {
	for _, topo := range []string{"flat", "two-tier"} {
		for _, mode := range []string{"serial", "sharded"} {
			for _, view := range []string{"live", "stale"} {
				name := topo + "/" + mode + "/" + view
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := goldenConfig(topo == "two-tier", mode == "sharded", view == "stale")
					h := sha256.New()
					events := 0
					cfg.Trace = trace.Func(func(e trace.Event) {
						events++
						fmt.Fprintf(h, "%#v\n", e)
					})
					res := run(t, cfg)
					fmt.Fprintf(h, "%#v\n", res)
					if events == 0 || len(res.TailSpans) == 0 {
						t.Fatalf("row recorded %d events and %d tail spans", events, len(res.TailSpans))
					}
					got := hex.EncodeToString(h.Sum(nil)[:8])
					if want := runnerGolden[name]; got != want {
						t.Errorf("digest %s, want %s (%d events, %v)", got, want, events, res)
					}
				})
			}
		}
	}
}
