package cluster

import (
	"runtime"
	"testing"

	"rpcvalet/internal/rng"
)

// rackPolicies is the benchmark policy set at rack scale: the two O(1)-ish
// policies (random, rr), sampled JSQ(2), and the two whole-cluster policies
// (full-scan JSQ, bounded-load) whose decision cost is the point of the
// depth-index engine. Names are fixed strings, not Policy.String(), so the
// benchmark identity survives policy-labeling changes and benchdiff can
// compare snapshots across them.
func rackPolicies(nodes int) []struct {
	name string
	mk   func() Policy
} {
	return []struct {
		name string
		mk   func() Policy
	}{
		{"random", func() Policy { return Random{} }},
		{"rr", func() Policy { return &RoundRobin{} }},
		{"jsq2", func() Policy { return JSQ{D: 2} }},
		{"jsqfull", func() Policy { return JSQ{D: FullScan} }},
		{"bounded", func() Policy { return &BoundedLoad{Factor: 1.25} }},
	}
}

// BenchmarkPolicyPick measures the balancer's per-RPC decision cost alone,
// at the ROADMAP's 1000-node rack target: one Pick plus the index updates a
// dispatch and a completion cost on the live view. The churn keeps ~4
// outstanding RPCs per node — a realistic mid-load depth distribution shaped
// by the policy itself (each pick's node is dispatched; the pick from 4N
// iterations ago completes). ns/op therefore reads as ns per balancer
// decision at steady state.
func BenchmarkPolicyPick(b *testing.B) {
	const nodes = 1000
	for _, pc := range rackPolicies(nodes) {
		b.Run("policy="+pc.name+"/nodes=1000", func(b *testing.B) {
			v := newView(nodes, true)
			r := rng.New(1)
			pol := pc.mk()
			ring := make([]int, 4*nodes)
			for i := range ring {
				c := pol.Pick(v, r)
				v.dispatched(c)
				ring[i] = c
			}
			pos := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := pol.Pick(v, r)
				v.dispatched(c)
				v.completed(ring[pos])
				ring[pos] = c
				pos++
				if pos == len(ring) {
					pos = 0
				}
			}
		})
	}
}

// BenchmarkClusterRack is the end-to-end 1000-node benchmark on the serial
// engine, split into phases (see benchPhases): phase=steady's sim_mrps reads
// the simulator's whole-rack per-request throughput with the decision
// engine on the arrival path, and phase=build what constructing the rack
// costs. jsq2 rides along as the control: its pick cost is O(1), so any
// movement there is simulator noise, while jsqfull and bounded isolate the
// O(N)-scan-versus-index difference.
func BenchmarkClusterRack(b *testing.B) {
	const nodes = 1000
	for _, pc := range rackPolicies(nodes) {
		switch pc.name {
		case "jsq2", "jsqfull", "bounded":
		default:
			continue
		}
		b.Run("policy="+pc.name+"/nodes=1000", func(b *testing.B) {
			cfg := baseConfig(nodes, pc.mk(), 0.8)
			cfg.Warmup = 2000
			cfg.Measure = 30000
			benchPhases(b, cfg, func(c Config) Config {
				c.Policy = c.Policy.Clone()
				return c
			})
		})
	}
}

// benchPhases benchmarks one cluster configuration in two sub-benchmarks.
// phase=build times newRunner alone: the engines, the tier chain and every
// node. phase=steady times the simulation that follows, with each
// iteration's build outside the timer, so its sim_mrps counts completions
// (warm-up included) per second of simulating, not of constructing. fresh
// gives each iteration its own policy state.
func benchPhases(b *testing.B, cfg Config, fresh func(Config) Config) {
	if err := cfg.validate(); err != nil {
		b.Fatal(err)
	}
	b.Run("phase=build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := newRunner(fresh(cfg)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("phase=steady", func(b *testing.B) {
		total := cfg.Warmup + cfg.Measure
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r, err := newRunner(fresh(cfg))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := r.run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Completed != total {
				b.Fatalf("completed %d of %d", res.Completed, total)
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds()/1e6, "sim_mrps")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})
}
