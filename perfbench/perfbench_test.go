package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rpcvalet/internal/cluster"
)

// Every workload at its self-test size passes its checks and reproduces
// the committed reference digest.
func TestShortWorkloadsPass(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.make(defaultSeed, true).rep()
			if err != nil {
				t.Fatal(err)
			}
			if len(r.problems) > 0 {
				t.Fatalf("checks failed: %v", r.problems)
			}
			if want, ok := referenceDigest(w.name, defaultSeed, true); !ok || r.digest != want {
				t.Fatalf("digest %s, reference %s (present %v)", r.digest, want, ok)
			}
		})
	}
}

// The traced run of every workload at its self-test size passes its
// consistency checks and reports every per-layer metric.
func TestShortTracedRunsConsistent(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			rec, err := tracedRun(w, defaultSeed, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 {
				t.Fatalf("traced run failed its checks: %v", rec.Problems)
			}
			if len(rec.Result.Metrics) != len(perLayerMetrics) || len(rec.spans) == 0 {
				t.Fatalf("%d metrics for %d names, %d spans", len(rec.Result.Metrics), len(perLayerMetrics), len(rec.spans))
			}
		})
	}
}

// An altered reference digest is reported as a failed run.
func TestAlteredDigestIsCaught(t *testing.T) {
	saved := referenceJSON
	t.Cleanup(func() { referenceJSON = saved })
	want, ok := referenceDigest("rack-1000", defaultSeed, true)
	if !ok {
		t.Fatal("no reference digest for rack-1000")
	}
	referenceJSON = bytes.Replace(saved, []byte(want), []byte("0000000000000000"), 1)

	w, _ := workloadByName("rack-1000")
	rec, err := timedRun(w, defaultSeed, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result.Correct || rec.Result.Failed != rec.Result.Attempted {
		t.Fatalf("altered digest not caught: %+v %v", rec.Result, rec.Problems)
	}
}

// A Fig 7a claim whose band the sweep cannot meet is reported.
func TestAlteredClaimIsCaught(t *testing.T) {
	s := sloSweep(defaultSeed, true).(*sweepScenario)
	out, err := s.sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	values := fig7aValues(out.curves)
	if p := checkClaims(values, fig7aClaims); len(p) > 0 {
		t.Fatalf("claims fail unaltered: %v", p)
	}
	altered := append([]claim(nil), fig7aClaims...)
	altered[2].lo = 100 // 1x16 beating 16x1 a hundredfold under the SLO
	if p := checkClaims(values, altered); len(p) != 1 || !strings.Contains(p[0], altered[2].name) {
		t.Fatalf("altered claim not caught: %v", p)
	}
}

// The policy wrapper, stamping or timing, leaves modelled results
// identical to the unwrapped run, serial and sharded.
func TestPolicyWrapperLeavesResultsIdentical(t *testing.T) {
	for _, w := range []string{"rack-1000", "hier-sharded"} {
		def, _ := workloadByName(w)
		s := def.make(defaultSeed, true).(*clusterScenario)
		plain := s.cfg
		plain.Policy = s.cfg.Policy.Clone()
		if s.cfg.GlobalPolicy != nil {
			plain.GlobalPolicy = s.cfg.GlobalPolicy.Clone()
		}
		want, err := cluster.Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		for _, timed := range []bool{false, true} {
			c, rack, _ := s.metered(timed)
			got, err := cluster.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s timed=%v: wrapped result differs from unwrapped", w, timed)
			}
			if rack.first.Load() == 0 {
				t.Errorf("%s timed=%v: first pick not stamped", w, timed)
			}
		}
	}
}

// The command prints, as its last line, exactly the result keys with every
// metric BENCHMARK.json names for the mode.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "rack-1000", "--seconds", "1", "--short", "--trace", trace}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Fatalf("trace %s: result keys %v", trace, keys)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(want) {
			t.Fatalf("trace %s: correct %v, %d metrics for %d names", trace, res.Correct, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s: got %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}
