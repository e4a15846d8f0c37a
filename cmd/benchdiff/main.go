// Command benchdiff compares two BENCH_*.json snapshots produced by
// cmd/benchjson and reports the per-metric delta for every benchmark present
// in both. It is the regression gate of the performance trajectory: CI runs
// it (non-blocking) against the committed snapshot, and `make bench-diff`
// runs the same comparison locally.
//
// Usage:
//
//	go run ./cmd/benchdiff [-threshold pct] OLD.json NEW.json
//
// The exit status is 1 when any directional metric regressed by more than
// threshold percent: ns/op, B/op and allocs/op regress upward, while rate
// metrics such as sim_mrps and claims_ok_ratio regress downward. All other
// metrics (p99_ns, tables, ...) are informational — they describe the
// simulated system, not the simulator, so the gate ignores them.
//
// A benchmark whose two snapshots name different CPUs (cmd/benchjson's
// provenance) is compared but marked cross-host: its deltas measure the
// machines as much as the code, so they never count as regressions.
// Snapshots without a CPU (recorded before benchjson kept provenance) are
// compared as before.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// entry mirrors cmd/benchjson's output object.
type entry struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	CPU        string             `json:"cpu,omitempty"`
}

// direction classifies how a metric regresses: +1 means bigger is worse,
// -1 means smaller is worse, 0 means informational only.
func direction(metric string) int {
	switch metric {
	case "ns/op", "B/op", "allocs/op":
		return +1
	case "sim_mrps", "claims_ok_ratio":
		return -1
	}
	return 0
}

func load(path string) (map[string]entry, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var entries []entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	byKey := make(map[string]entry, len(entries))
	var order []string
	for _, e := range entries {
		key := e.Package + "." + e.Name
		if _, dup := byKey[key]; !dup {
			order = append(order, key)
		}
		byKey[key] = e
	}
	return byKey, order, nil
}

func main() {
	threshold := flag.Float64("threshold", 10, "regression threshold in percent for directional metrics")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchdiff [-threshold pct] OLD.json NEW.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldBy, _, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newBy, newOrder, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	regressions, crossHost := diff(os.Stdout, oldBy, newBy, newOrder, *threshold)
	if crossHost > 0 {
		fmt.Printf("\n%d benchmark(s) ran on a different CPU than their baseline; their deltas are not regressions\n", crossHost)
	}
	if regressions > 0 {
		fmt.Printf("\n%d metric(s) regressed beyond %.0f%%\n", regressions, *threshold)
		os.Exit(1)
	}
	fmt.Printf("\nno regressions beyond %.0f%%\n", *threshold)
}

// diff prints the per-metric comparison of every benchmark in newOrder and
// returns the number of same-host regressions past threshold percent and
// the number of benchmarks compared across different CPUs.
func diff(w io.Writer, oldBy, newBy map[string]entry, newOrder []string, threshold float64) (regressions, crossHost int) {
	fmt.Fprintf(w, "%-44s %-16s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	for _, key := range newOrder {
		ne := newBy[key]
		oe, ok := oldBy[key]
		if !ok {
			fmt.Fprintf(w, "%-44s %-16s %14s %14s %9s\n", ne.Name, "(new benchmark)", "-", "-", "-")
			continue
		}
		cross := oe.CPU != "" && ne.CPU != "" && oe.CPU != ne.CPU
		if cross {
			crossHost++
			fmt.Fprintf(w, "%-44s cross-host: %q vs %q\n", ne.Name, oe.CPU, ne.CPU)
		}
		metrics := make([]string, 0, len(ne.Metrics))
		for m := range ne.Metrics {
			if _, both := oe.Metrics[m]; both {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			ov, nv := oe.Metrics[m], ne.Metrics[m]
			var pct float64
			if ov != 0 {
				pct = (nv - ov) / ov * 100
			} else if nv != 0 {
				pct = 100
			}
			mark := ""
			if d := direction(m); d != 0 && float64(d)*pct > threshold {
				if cross {
					mark = "  (cross-host)"
				} else {
					mark = "  REGRESSION"
					regressions++
				}
			}
			fmt.Fprintf(w, "%-44s %-16s %14.4g %14.4g %+8.1f%%%s\n", ne.Name, m, ov, nv, pct, mark)
		}
	}
	for key, oe := range oldBy {
		if _, ok := newBy[key]; !ok {
			fmt.Fprintf(w, "%-44s %-16s %14s %14s %9s\n", oe.Name, "(removed)", "-", "-", "-")
		}
	}
	return regressions, crossHost
}
