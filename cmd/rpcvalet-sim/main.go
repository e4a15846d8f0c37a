// Command rpcvalet-sim runs a single full-machine simulation and prints the
// measured result in detail: latency percentiles (per request class), the
// derived SLO, throughput, and per-core/backend utilization.
//
// Usage:
//
//	rpcvalet-sim -mode 1x16 -workload herd -rate 10 [-measure 50000]
//	             [-arrival poisson] [-threshold 2] [-seed 1]
//	             [-dispatch jbsq2] [-modulate pulse@400us+200us:x2]
//	             [-degrade x1.5] [-epoch 25us] [-timeline]
//	             [-tail 32] [-trace-sample 1024] [-trace-jsonl spans.jsonl]
//	             [-format text|json]
//
// Modes: 1x16 (RPCValet), 4x4, 16x1 (RSS baseline), sw (MCS software queue).
// -dispatch overrides -mode with a full dispatch plan:
// "1x16" | "4x4" | "16x1" | "sw" | "jbsqN" | "GxM", optionally ":policy"
// (first-available, round-robin, least-outstanding, least-outstanding-rr,
// randomN, local) — e.g. -dispatch 1x16:least-outstanding, -dispatch
// 2x8:random2, -dispatch jbsq1.
// Workloads: herd, masstree, fixed, uniform, exp, gev.
// Arrivals: poisson (default), det, mmpp2, lognormal — same mean rate,
// different burstiness.
// -modulate wraps the arrival process in a rate envelope ("step@AT:xF",
// "pulse@START+DUR:xF", "ramp@START+DUR:xF", "square@PERIOD/HIGH:xF");
// -degrade injects machine faults ("x1.5" slowdown, "pause@200us+100us"
// stall windows, comma-combinable); -timeline prints the epoch-sliced
// timeline (sparkline + table) alongside the summary.
//
// Observability: -tail retains the K slowest requests with full span
// breakdowns (queue wait / dispatch / service, core attribution, queue depth
// at arrival) and prints them as a table (JSON output embeds them as
// TailSpans); -trace-jsonl writes sampled request spans (1-in-N by
// -trace-sample) as JSON lines. Tracing is passive: results are
// byte-identical with it on or off.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"rpcvalet"
	"rpcvalet/internal/cli"
	"rpcvalet/internal/report"
)

func main() {
	f := cli.New("rpcvalet-sim", "herd", "text", "json")
	f.Sim(5000, 50000)
	rate := flag.Float64("rate", 10, "offered load in MRPS")
	threshold := flag.Int("threshold", 2, "outstanding requests per core")
	f.Parse()

	params, _ := f.Params(1)
	params.Threshold = *threshold
	flt := f.Fault()
	cfg := rpcvalet.Config{
		Params:      params,
		Workload:    f.Profile(),
		RateMRPS:    *rate,
		Arrival:     f.ArrivalAt(*rate),
		Warmup:      *f.Warmup,
		Measure:     *f.Measure,
		Seed:        *f.Seed,
		Slowdown:    flt.Slowdown,
		Pauses:      flt.Pauses,
		Epoch:       f.EpochLen(),
		TailSamples: *f.Tail,
		Trace:       f.Trace(),
		TraceSample: *f.TraceSample,
	}

	res, err := rpcvalet.Run(cfg)
	f.Check(1, err)
	f.Check(1, f.WriteSpans())
	if *f.Format == "json" {
		f.Check(1, cli.JSON(res))
		return
	}

	fmt.Printf("%s  workload=%s  offered=%.2f MRPS  seed=%d\n\n",
		res.Dispatch, res.Workload, res.RateMRPS, res.Seed)

	sum := report.NewTable("measurement", "metric", "value")
	sum.AddRowf("throughput (MRPS)", res.ThroughputMRPS)
	sum.AddRowf("mean service S̄ (ns)", res.ServiceMeanNanos)
	sum.AddRowf("SLO (ns)", res.SLONanos)
	sum.AddRowf("meets SLO", res.MeetsSLO)
	sum.AddRowf("completions", res.Completed)
	sum.AddRowf("max queue depth", res.DispatcherMaxDepth)
	sum.AddRowf("blocked arrivals", res.BlockedArrivals)
	sum.AddRowf("reply stalls", res.ReplyStalls)
	sum.AddRowf("timed out", res.TimedOut)
	f.Check(1, sum.WriteText(os.Stdout))
	fmt.Println()

	lat := report.NewTable("latency (ns)", "class", "count", "mean", "p50", "p99", "p99.9", "max")
	lat.AddRowf("measured", res.Latency.Count, res.Latency.Mean, res.Latency.P50,
		res.Latency.P99, res.Latency.P999, res.Latency.Max)
	classes := make([]string, 0, len(res.ClassLatency))
	for name := range res.ClassLatency {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		s := res.ClassLatency[name]
		lat.AddRowf(name, s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
	}
	f.Check(1, lat.WriteText(os.Stdout))
	fmt.Println()

	util := report.NewTable("utilization", "unit", "busy fraction")
	for i, u := range res.CoreUtilization {
		util.AddRowf(fmt.Sprintf("core %d", i), u)
	}
	for i, u := range res.BackendUtilization {
		util.AddRowf(fmt.Sprintf("backend %d", i), u)
	}
	f.Check(1, util.WriteText(os.Stdout))

	if *f.Tail > 0 {
		fmt.Println()
		f.Check(1, report.SpanTable("slowest requests", res.TailSpans).WriteText(os.Stdout))
	}

	if *f.Timeline {
		fmt.Println()
		fmt.Println(report.TimelineSpark(res.Timeline))
		fmt.Println()
		f.Check(1, report.TimelineTable("timeline", res.Timeline).WriteText(os.Stdout))
	}
}
