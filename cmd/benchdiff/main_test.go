package main

import (
	"io"
	"testing"
)

// TestDiffCrossHost: a 50% slowdown is a regression when both snapshots
// name the same CPU or one names none, and only a cross-host note when they
// name different CPUs.
func TestDiffCrossHost(t *testing.T) {
	for _, tc := range []struct {
		oldCPU, newCPU string
		regressions    int
		crossHost      int
	}{
		{"Xeon A", "Xeon A", 1, 0},
		{"Xeon A", "EPYC B", 0, 1},
		{"", "EPYC B", 1, 0},
	} {
		key := "pkg.BenchmarkX"
		oldBy := map[string]entry{key: {Name: "BenchmarkX", Metrics: map[string]float64{"ns/op": 100, "p99_ns": 5}, CPU: tc.oldCPU}}
		newBy := map[string]entry{key: {Name: "BenchmarkX", Metrics: map[string]float64{"ns/op": 150, "p99_ns": 9}, CPU: tc.newCPU}}
		reg, cross := diff(io.Discard, oldBy, newBy, []string{key}, 20)
		if reg != tc.regressions || cross != tc.crossHost {
			t.Errorf("CPUs %q → %q: regressions %d, cross-host %d; want %d, %d",
				tc.oldCPU, tc.newCPU, reg, cross, tc.regressions, tc.crossHost)
		}
	}
}
