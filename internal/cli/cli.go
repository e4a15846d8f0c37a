// Package cli is the flag-to-config layer of rpcvalet-sim, rpcvalet-cluster
// and rpcvalet-live. Each flag the commands share is registered here once,
// with one meaning and one usage string, and turned into simulator or
// runtime config here; a command passes in only its own defaults. Every
// value is checked before the first simulation runs: a bad one exits with
// status 2 and the command's name as the error prefix.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/cluster"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/obs"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/trace"
	"rpcvalet/internal/workload"
)

// Flags holds the shared flags of one command.
type Flags struct {
	prog       string             // the command's name: the prefix of every error
	formats    []string           // the -format values the command prints
	collectors []*trace.Collector // one per traced run, in run order

	Workload, Format, TraceJSONL *string
	Seed                         *uint64
	Timeline                     *bool
	Tail, TraceSample            *int

	// The simulator flags, registered by Sim.
	Mode, Dispatch, Arrival, Modulate, Degrade, Epoch *string
	Warmup, Measure                                   *int
}

// New registers the flags all three commands share on flag.CommandLine:
// the workload (default wl), the seed, the output format (formats lists the
// accepted values, the first being the default), and the timeline, tail
// and trace flags.
func New(prog, wl string, formats ...string) *Flags {
	return &Flags{
		prog:        prog,
		formats:     formats,
		Workload:    flag.String("workload", wl, "workload: herd, masstree, fixed, uniform, exp, gev"),
		Seed:        flag.Uint64("seed", 1, "random seed"),
		Format:      flag.String("format", formats[0], "output format: "+strings.Join(formats, ", ")),
		Timeline:    flag.Bool("timeline", false, "print the epoch-sliced timeline (text output)"),
		Tail:        flag.Int("tail", 0, "retain the K slowest requests with span breakdowns"),
		TraceSample: flag.Int("trace-sample", 0, "trace 1 in N requests (0/1 = every request; used with -trace-jsonl)"),
		TraceJSONL:  flag.String("trace-jsonl", "", "write sampled request spans as JSON lines to this file"),
	}
}

// Sim registers the flags the two simulators share: the node dispatch
// model, the arrival stream and its envelope, faults, the epoch length, and
// the warmup and measured completion counts (defaults warmup, measure).
func (f *Flags) Sim(warmup, measure int) {
	f.Mode = flag.String("mode", "1x16", "node dispatch mode: 1x16, 4x4, 16x1, sw")
	f.Dispatch = flag.String("dispatch", "", "dispatch plan overriding -mode, 1x16|4x4|16x1|sw|jbsqN|GxM[:policy], or a comma-separated list of one plan per node")
	f.Arrival = flag.String("arrival", "poisson", "arrival process: poisson, det, mmpp2, lognormal")
	f.Modulate = flag.String("modulate", "", "rate envelope: step@AT:xF, pulse@START+DUR:xF, ramp@START+DUR:xF, square@PERIOD/HIGH:xF")
	f.Degrade = flag.String("degrade", "", "faults: x<factor> slowdown and/or pause@START+DUR, comma-separated; a cluster scopes them as NODE:FAULT or rackR:FAULT entries separated by semicolons")
	f.Epoch = flag.String("epoch", "", "timeline epoch length (e.g. 25us; empty = auto)")
	f.Warmup = flag.Int("warmup", warmup, "completions discarded before measuring")
	f.Measure = flag.Int("measure", measure, "completions measured")
}

// Parse parses the command line and checks -format and the -trace-jsonl
// path, so that neither fails only after the runs.
func (f *Flags) Parse() {
	flag.Parse()
	if !slices.Contains(f.formats, *f.Format) {
		n := len(f.formats) - 1
		f.Check(2, fmt.Errorf("unknown format %q (want %s or %s)", *f.Format, strings.Join(f.formats[:n], ", "), f.formats[n]))
	}
	if *f.TraceJSONL != "" {
		file, err := os.Create(*f.TraceJSONL)
		if err == nil {
			err = file.Close()
		}
		f.Check(2, err)
	}
}

// Check exits with status code when err is non-nil, printing it under the
// command's name.
func (f *Flags) Check(code int, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
		os.Exit(code)
	}
}

// Profile is the -workload profile.
func (f *Flags) Profile() workload.Profile {
	switch *f.Workload {
	case "herd":
		return workload.HERD()
	case "masstree":
		return workload.Masstree()
	}
	wl, err := workload.Synthetic(*f.Workload)
	f.Check(2, err)
	return wl
}

var modes = map[string]machine.Mode{
	"1x16": machine.ModeSingleQueue,
	"4x4":  machine.ModeGrouped,
	"16x1": machine.ModePartitioned,
	"sw":   machine.ModeSoftware,
}

// Params turns -mode and -dispatch into node parameters. A -dispatch list
// of one plan per node comes back as per-node plans instead.
func (f *Flags) Params(nodes int) (machine.Params, []*machine.Plan) {
	p := machine.Defaults()
	mode, ok := modes[*f.Mode]
	if !ok {
		f.Check(2, fmt.Errorf("unknown mode %q", *f.Mode))
	}
	p.Mode = mode
	if *f.Dispatch == "" {
		return p, nil
	}
	plans, err := Plans(*f.Dispatch)
	f.Check(2, err)
	switch len(plans) {
	case 1:
		p.Plan = plans[0]
		return p, nil
	case nodes:
		return p, plans
	}
	f.Check(2, fmt.Errorf("%d dispatch plans for %d nodes (want 1 or %d)", len(plans), nodes, nodes))
	return p, nil
}

// Plans parses a comma-separated list of dispatch plans.
func Plans(list string) ([]*machine.Plan, error) {
	var plans []*machine.Plan
	for _, spec := range strings.Split(list, ",") {
		pl, err := machine.ParsePlan(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		plans = append(plans, pl)
	}
	return plans, nil
}

// ArrivalAt is the -arrival process at rateMRPS, wrapped in the -modulate
// envelope when one is set.
func (f *Flags) ArrivalAt(rateMRPS float64) arrival.Process {
	p, err := arrival.ByName(*f.Arrival, rateMRPS)
	f.Check(2, err)
	if *f.Modulate == "" {
		return p
	}
	env, err := arrival.ParseEnvelope(*f.Modulate)
	f.Check(2, err)
	return arrival.NewModulated(p, env)
}

// EpochLen is the -epoch length, 0 (auto) when unset.
func (f *Flags) EpochLen() sim.Duration {
	if *f.Epoch == "" {
		return 0
	}
	d, err := sim.ParseDuration(*f.Epoch)
	f.Check(2, err)
	return d
}

// Fault is -degrade in the single-machine grammar.
func (f *Flags) Fault() machine.Fault {
	flt, err := machine.ParseFault(*f.Degrade)
	f.Check(2, err)
	return flt
}

// NodeFaults is -degrade in the cluster's node- and rack-scoped grammar.
func (f *Flags) NodeFaults() []cluster.NodeFault {
	faults, err := cluster.ParseFaults(*f.Degrade)
	f.Check(2, err)
	return faults
}

// Trace returns the recorder for one run's Trace field: a fresh span
// collector when -trace-jsonl is set, else nil. WriteSpans writes out the
// spans of every collector Trace handed out.
func (f *Flags) Trace() trace.Recorder {
	if *f.TraceJSONL == "" {
		return nil
	}
	c := trace.NewCollector()
	f.collectors = append(f.collectors, c)
	return c
}

// WriteSpans writes the traced runs' spans to the -trace-jsonl file as JSON
// lines, run by run.
func (f *Flags) WriteSpans() error {
	if *f.TraceJSONL == "" {
		return nil
	}
	file, err := os.Create(*f.TraceJSONL)
	if err != nil {
		return err
	}
	for _, c := range f.collectors {
		if err := obs.WriteSpansJSONL(file, c.Spans()); err != nil {
			file.Close()
			return err
		}
	}
	return file.Close()
}

// JSON writes v to stdout as indented JSON: the -format json output.
func JSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
