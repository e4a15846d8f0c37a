package main

import (
	"runtime"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: rpcvalet/internal/cluster
cpu: Intel(R) Xeon(R) Processor
BenchmarkClusterRack/policy=jsq2/nodes=1000/phase=build-2   	       1	  87401669 ns/op	62670048 B/op	   99045 allocs/op
BenchmarkTrace/sampled-1in1024   	      10	  120 ns/op
PASS
pkg: rpcvalet
BenchmarkFigHier-8   	       1	5647880035 ns/op	         1.000 claims_ok_ratio
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Name: "BenchmarkClusterRack/policy=jsq2/nodes=1000/phase=build", Package: "rpcvalet/internal/cluster", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 87401669, "B/op": 62670048, "allocs/op": 99045}, GOMAXPROCS: 2},
		{Name: "BenchmarkTrace/sampled-1in1024", Package: "rpcvalet/internal/cluster", Iterations: 10,
			Metrics: map[string]float64{"ns/op": 120}, GOMAXPROCS: 1},
		{Name: "BenchmarkFigHier", Package: "rpcvalet", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 5647880035, "claims_ok_ratio": 1}, GOMAXPROCS: 8},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		w.CPU, w.GoVersion = "Intel(R) Xeon(R) Processor", runtime.Version()
		if g.Name != w.Name || g.Package != w.Package || g.Iterations != w.Iterations ||
			g.CPU != w.CPU || g.GOMAXPROCS != w.GOMAXPROCS || g.GoVersion != w.GoVersion || len(g.Metrics) != len(w.Metrics) {
			t.Fatalf("entry %d = %+v, want %+v", i, g, w)
		}
		for m, v := range w.Metrics {
			if g.Metrics[m] != v {
				t.Fatalf("entry %d metric %s = %v, want %v", i, m, g.Metrics[m], v)
			}
		}
	}
}
