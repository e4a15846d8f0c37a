// Command rpcvalet-cluster sweeps a rack of simulated RPCValet servers
// behind a cluster-level load balancer and prints the policy × load report
// table: p99 latency (and optionally throughput/imbalance) at each offered
// load for every requested balancing policy. Identical flags and seed
// reproduce identical tables.
//
// Usage:
//
//	rpcvalet-cluster [-nodes 4] [-mode 1x16] [-dispatch jbsq2] [-workload exp]
//	                 [-policies random,rr,jsq2,bounded] [-arrival poisson]
//	                 [-points 8] [-lo 0.3] [-hi 0.9] [-hop 500] [-sample 0]
//	                 [-racks 8] [-global-policy jsqfull] [-global-hop 500]
//	                 [-global-sample 0]
//	                 [-modulate pulse@400us+200us:x2] [-degrade 0:x1.5]
//	                 [-epoch 25us] [-timeline]
//	                 [-tail 32] [-trace-sample 1024] [-trace-jsonl spans.jsonl]
//	                 [-warmup 2000] [-measure 20000] [-seed 1] [-workers N]
//	                 [-shards N] [-format text|csv|json] [-detail]
//
// Modes name the per-node NI dispatch model: 1x16 (RPCValet), 4x4, 16x1
// (RSS baseline), sw (MCS software queue). -dispatch overrides -mode with a
// full dispatch plan ("1x16" | "4x4" | "16x1" | "sw" | "jbsqN" |
// "GxM"[:policy]); a comma-separated list assigns plans node by node — a
// heterogeneous rack — and must name one plan per node (e.g. -nodes 2
// -dispatch 1x16,16x1). Workloads: herd, masstree, fixed, uniform, exp,
// gev. Arrivals shape the aggregate traffic: poisson (default), det,
// mmpp2, lognormal. Loads are fractions of the cluster's estimated
// aggregate capacity.
//
// -racks splits the node set into R racks, each behind its own rack
// balancer, with a global balancer dispatching over rack aggregate depths —
// the two-tier datacenter topology. -global-policy picks the global tier's
// policy (same grammar as -policies; the -policies list still names the
// rack-level policy of each curve), -global-hop the global→rack network
// latency in ns, and -global-sample a stale-scrape period for the global
// depth view (0 = live). -racks 0 keeps the flat single-tier cluster.
//
// -modulate wraps the aggregate arrival stream in a rate envelope
// ("step@AT:xF", "pulse@START+DUR:xF", "ramp@START+DUR:xF",
// "square@PERIOD/HIGH:xF"); -degrade injects per-node or per-rack faults
// ("0:x1.5;3:pause@500us+100us", "rack0:pause@1ms+500us" — rack scopes
// need -racks); -timeline prints the highest-load point's aggregate and
// per-node timelines for the first policy.
//
// -shards runs each simulation on N parallel engine shards — per-node-group
// event wheels plus a balancer shard, synchronized conservatively at the
// network hop (the lookahead window). 0 or 1 selects the serial single-clock
// engine, byte-identical to all pinned results; N > 1 is deterministic for a
// fixed (seed, shards) pair. Sweep fan-out narrows so -workers still caps
// total goroutines.
//
// Observability: -tail and -trace-jsonl re-run the highest-load point for
// the first policy (the same run -timeline inspects) with request tracing
// on. -tail prints the K slowest requests with their full cross-node span
// breakdowns — balancer receive, forward, node arrival, dispatch, service —
// and -trace-jsonl writes sampled request spans (1-in-N by -trace-sample) as
// JSON lines.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"rpcvalet"
	"rpcvalet/internal/cli"
	"rpcvalet/internal/report"
	"rpcvalet/internal/sim"
)

func main() {
	f := cli.New("rpcvalet-cluster", "exp", "text", "csv", "json")
	f.Sim(2000, 20000)
	var (
		nodes    = flag.Int("nodes", 4, "servers behind the balancer")
		policies = flag.String("policies", strings.Join(rpcvalet.ClusterPolicies(), ","),
			"comma-separated balancing policies (random, rr, jsqD, jsqfull, bounded)")
		points   = flag.Int("points", 8, "offered-load points per policy")
		lo       = flag.Float64("lo", 0.3, "lowest load fraction of cluster capacity")
		hi       = flag.Float64("hi", 0.9, "highest load fraction of cluster capacity")
		hop      = flag.Float64("hop", 500, "balancer→node network hop, ns")
		sample   = flag.Float64("sample", 0, "balancer depth-view refresh period, ns (0 = live)")
		racks    = flag.Int("racks", 0, "split nodes into R racks behind a global balancer (0 = flat)")
		gpolName = flag.String("global-policy", "jsqfull", "global balancer policy over racks (used with -racks)")
		ghop     = flag.Float64("global-hop", 500, "global balancer→rack balancer hop, ns (used with -racks)")
		gsample  = flag.Float64("global-sample", 0, "global rack-depth scrape period, ns (0 = live; used with -racks)")
		detail   = flag.Bool("detail", false, "also print throughput and imbalance tables")
		workers  = flag.Int("workers", 0, "concurrent simulations per sweep (0 = NumCPU)")
		shards   = flag.Int("shards", 0, "parallel engine shards per simulation (0/1 = serial single-clock engine)")
	)
	f.Parse()

	params, nodePlans := f.Params(*nodes)
	wl := f.Profile()
	base := rpcvalet.DefaultCluster(*nodes, wl, nil)
	base.Node.Params = params
	base.NodePlans = nodePlans
	base.Faults = f.NodeFaults()
	base.Epoch = f.EpochLen()
	// The sweep re-rates the process to each point's aggregate rate.
	base.Arrival = f.ArrivalAt(base.RateMRPS)
	base.Hop = nanos(f, "hop", *hop)
	base.SampleEvery = nanos(f, "sample", *sample)
	// The global-tier flags are checked even without -racks, so a typo
	// never passes silently.
	gpol, err := rpcvalet.ClusterPolicyByName(*gpolName)
	f.Check(2, err)
	gh, gs := nanos(f, "global-hop", *ghop), nanos(f, "global-sample", *gsample)
	if *racks > 0 {
		base.Racks, base.GlobalPolicy, base.GlobalHop, base.GlobalSampleEvery = *racks, gpol, gh, gs
	}
	base.Warmup = *f.Warmup
	base.Measure = *f.Measure
	base.Seed = *f.Seed
	base.Shards = *shards
	names := strings.Split(*policies, ",")
	pols := make([]rpcvalet.ClusterPolicy, len(names))
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		pols[i], err = rpcvalet.ClusterPolicyByName(names[i])
		f.Check(2, err)
	}

	capacity := rpcvalet.ClusterCapacityMRPS(base)
	loads := fractions(*lo, *hi, *points)
	rates := make([]float64, len(loads))
	for i, l := range loads {
		rates[i] = l * capacity
	}
	curves := make([]rpcvalet.ClusterCurve, len(pols))
	for i, pol := range pols {
		cfg := base
		cfg.Policy = pol
		curves[i], err = rpcvalet.ClusterSweepWorkers(cfg, rates, names[i], *workers)
		f.Check(1, err)
	}

	dispLabel := *f.Mode
	if *f.Dispatch != "" {
		dispLabel = *f.Dispatch
	}
	topo := ""
	if *racks > 0 {
		topo = fmt.Sprintf(" in %d racks (%s global, %.0f ns global hop)", *racks, *gpolName, *ghop)
	}
	fmt.Printf("# cluster: %d × %s nodes%s, %s workload, capacity ≈ %.1f MRPS, hop %.0f ns, seed %d\n\n",
		*nodes, dispLabel, topo, wl.Name, capacity, *hop, *f.Seed)
	emit := func(title string, value func(rpcvalet.ClusterPoint) float64) {
		cols := []string{"load", "rate_mrps"}
		for _, c := range curves {
			cols = append(cols, c.Label)
		}
		tbl := report.NewTable(title, cols...)
		for i, l := range loads {
			row := []any{l, curves[0].Points[i].RateMRPS}
			for _, c := range curves {
				row = append(row, value(c.Points[i]))
			}
			tbl.AddRowf(row...)
		}
		f.Check(1, tbl.Format(os.Stdout, *f.Format))
		fmt.Println()
	}
	emit("p99 latency (ns) by policy", func(p rpcvalet.ClusterPoint) float64 { return p.P99 })
	if *detail {
		emit("throughput (MRPS) by policy", func(p rpcvalet.ClusterPoint) float64 { return p.ThroughputMRPS })
		emit("completion imbalance (max/mean) by policy", func(p rpcvalet.ClusterPoint) float64 { return p.Imbalance })
	}

	if !*f.Timeline && *f.Tail == 0 && *f.TraceJSONL == "" {
		return
	}
	// One extra run of the highest-load point, first policy, with the
	// requested instrumentation. The balancing policy may be stateful
	// (round-robin rotation, bounded-load counters), so give the rerun a
	// fresh instance rather than the swept one.
	cfg := base
	cfg.Policy = pols[0].Clone()
	cfg.RateMRPS = rates[len(rates)-1]
	cfg.TailSamples = *f.Tail
	cfg.Trace, cfg.TraceSample = f.Trace(), *f.TraceSample
	res, err := rpcvalet.RunCluster(cfg)
	f.Check(1, err)
	f.Check(1, f.WriteSpans())
	if *f.Tail > 0 {
		fmt.Printf("# slowest requests: policy %s at %.1f MRPS\n\n", names[0], cfg.RateMRPS)
		f.Check(1, report.SpanTable("slowest requests", res.TailSpans).WriteText(os.Stdout))
		fmt.Println()
	}
	if !*f.Timeline {
		return
	}
	fmt.Printf("# timelines: policy %s at %.1f MRPS\n\n", names[0], cfg.RateMRPS)
	fmt.Println(report.TimelineSpark(res.Timeline))
	fmt.Println()
	f.Check(1, report.TimelineTable("aggregate timeline", res.Timeline).WriteText(os.Stdout))
	for i, tl := range res.NodeTimelines {
		fmt.Printf("\nnode %d (%s, %s): %s\n", i, res.NodeDispatch[i], res.NodeFaults[i], report.TimelineSpark(tl))
	}
}

// nanos converts the nanosecond flag -name to a Duration, rejecting what
// sim.FromNanos would clamp to zero or overflow.
func nanos(f *cli.Flags, name string, ns float64) sim.Duration {
	if !(ns >= 0 && ns*float64(sim.Nanosecond) < math.MaxInt64) {
		f.Check(2, fmt.Errorf("-%s %v: want a non-negative nanosecond count within the clock's range", name, ns))
	}
	return sim.FromNanos(ns)
}

// fractions builds n evenly spaced load fractions in [lo, hi].
func fractions(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{hi}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}
