// Command perfbench is the simulator's end-to-end benchmark. One invocation
// runs one workload for a fixed number of host seconds, checks every run's
// modelled output, and prints the metrics as the last line of standard
// output:
//
//	perfbench --workload node-steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics (host cost and
// modelled tail); with --trace 1 a separate traced run carries the per-layer
// breakdown and writes a spans file. README.md describes the workloads, the
// metrics and the layer each one belongs to.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir receives per-run records and span files, relative to the checkout.
const outDir = ".bench_out"

// maxRunWall stops starting new repetitions once a run has used this much
// host time, so a run ends well inside its time limit whatever --seconds
// says.
const maxRunWall = 150 * time.Second

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full account of one invocation, written to outDir and
// echoed on stdout before the result line.
type record struct {
	Provenance provenance        `json:"provenance"`
	Result     result            `json:"result"`
	Reps       []repRecord       `json:"reps,omitempty"`
	Problems   []string          `json:"problems,omitempty"`
	Notes      map[string]string `json:"notes,omitempty"`
	spans      []spanRec
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's configuration is generated from")
	seconds := fs.Int("seconds", 20, "host seconds to spend on timed repetitions")
	traced := fs.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	short := fs.Bool("short", false, "run the workload at its tiny self-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	// One simulation at a time, on no more threads than the host has.
	runtime.GOMAXPROCS(runtime.NumCPU())

	prov := hostProvenance(".")
	prov.Workload, prov.Seed, prov.Seconds, prov.Trace, prov.Short = w.name, *seed, *seconds, *traced == 1, *short

	var rec record
	var err error
	if *traced == 1 {
		rec, err = tracedRun(w, *seed, *short)
	} else {
		rec, err = timedRun(w, *seed, *short, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rec.Provenance = prov
	for _, p := range rec.Problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	if err := writeRecord(rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	head, err := json.Marshal(map[string]any{"provenance": prov, "problems": rec.Problems})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", head, line)
	return 0
}

// timedRun checks the golden reference, then repeats the workload untraced
// until the time budget is spent and reports medians over the repetitions.
func timedRun(w workloadDef, seed uint64, short bool, budget time.Duration) (record, error) {
	var rec record
	golden, err := goldenCheck(w)
	if err != nil {
		return rec, err
	}
	attempted, failed := 1, 0
	if len(golden) > 0 {
		failed++
		rec.Problems = append(rec.Problems, golden...)
	}

	sc := w.make(seed, short)
	start := time.Now()
	var reps []rep
	for len(reps) == 0 || time.Since(start) < budget {
		if n := len(reps); n > 0 && time.Since(start)+reps[n-1].total > maxRunWall {
			break
		}
		t0 := time.Now()
		r, err := sc.rep()
		if err != nil {
			return rec, err
		}
		r.total = time.Since(t0)
		reps = append(reps, r)
	}
	want, haveRef := referenceDigest(w.name, seed, short)
	for i, r := range reps {
		probs := r.problems
		if r.digest != reps[0].digest {
			probs = append(probs, fmt.Sprintf("rep %d digest %s differs from rep 0's %s at one seed", i, r.digest, reps[0].digest))
		}
		if haveRef && r.digest != want {
			probs = append(probs, fmt.Sprintf("rep %d digest %s, reference %s", i, r.digest, want))
		}
		attempted++
		if len(probs) > 0 {
			failed++
			rec.Problems = append(rec.Problems, probs...)
		}
		rec.Reps = append(rec.Reps, r.record())
	}
	// The first repetition is a warm-up: checked, but left out of the
	// medians. It starts from the golden run's small-heap GC state, which
	// moves the last full mark of a 1 GB build from set-up into simulation.
	timed := reps
	if len(reps) > 1 {
		timed = reps[1:]
	}
	rec.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: endToEnd(timed)}
	return rec, nil
}

// goldenCheck runs the workload at its self-test size and the default seed
// and compares the modelled digest against the committed reference, so every
// run checks modelled behaviour whatever seed it was given.
func goldenCheck(w workloadDef) ([]string, error) {
	want, ok := referenceDigest(w.name, defaultSeed, true)
	if !ok {
		return []string{"no reference digest for the self-test size"}, nil
	}
	r, err := w.make(defaultSeed, true).rep()
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	probs := r.problems
	if r.digest != want {
		probs = append(probs, fmt.Sprintf("golden digest %s, reference %s", r.digest, want))
	}
	return probs, nil
}

// endToEnd reduces the repetitions to the end-to-end metrics: host costs
// are medians over repetitions; modelled values come from the first
// repetition (every repetition is checked to match it).
func endToEnd(reps []rep) map[string]metric {
	med := func(f func(rep) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	first := reps[0]
	return map[string]metric{
		"setup_s":      {med(func(r rep) float64 { return r.setup.Seconds() }), "s"},
		"run_s":        {med(func(r rep) float64 { return r.wall.Seconds() }), "s"},
		"sim_mrps":     {med(func(r rep) float64 { return float64(r.completions) / r.simWall.Seconds() / 1e6 }), "Mrps"},
		"alloc_mb":     {med(func(r rep) float64 { return float64(r.host.allocBytes) / 1e6 }), "MB"},
		"peak_heap_mb": {med(func(r rep) float64 { return float64(r.host.peakHeapBytes) / 1e6 }), "MB"},
		"sim_p50_ns":   {first.p50, "ns"},
		"sim_p99_ns":   {first.p99, "ns"},
		"sim_p999_ns":  {first.p999, "ns"},
		"sim_slo_mrps": {first.sloMRPS, "Mrps"},
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func writeRecord(rec record) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	p := rec.Provenance
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%t.json", p.Workload, p.Seed, p.Trace))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if len(rec.spans) == 0 {
		return nil
	}
	return writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", p.Workload, p.Seed)), p, rec.spans)
}

// writeSpans writes the provenance line, then one span per line.
func writeSpans(path string, p provenance, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]provenance{"provenance": p})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
