package cluster

import "testing"

// BenchmarkClusterHier is the end-to-end two-tier benchmark at the ROADMAP's
// 1000-node scale, split into build and steady phases (see benchPhases): a
// jsqfull global balancer dispatching over 8 rack balancers, each running
// whole-rack JSQ off its depth index, so phase=steady's sim_mrps reads the
// simulator's datacenter throughput with both dispatch tiers on the arrival
// path. The serial engine and the racks-as-shards PDES engine run as
// subtests: the serial cell is the tier abstraction's overhead against
// BenchmarkClusterRack (same nodes, one tier fewer), the sharded cell is
// the parallel path whose lookahead is the global hop.
func BenchmarkClusterHier(b *testing.B) {
	const nodes, racks = 1000, 8
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"engine=serial", 0},
		{"engine=sharded", racks},
	} {
		b.Run("topology=jsqfullxjsqfull/nodes=1000/"+bc.name, func(b *testing.B) {
			cfg := baseConfig(nodes, JSQ{D: FullScan}, 0.8)
			cfg.Racks = racks
			cfg.GlobalPolicy = JSQ{D: FullScan}
			cfg.GlobalHop = cfg.Hop
			cfg.Shards = bc.shards
			cfg.Warmup = 2000
			cfg.Measure = 30000
			benchPhases(b, cfg, func(c Config) Config {
				c.Policy = c.Policy.Clone()
				c.GlobalPolicy = c.GlobalPolicy.Clone()
				return c
			})
		})
	}
}
