package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/cluster"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/trace"
)

// perLayerMetrics is the traced run's output, in BENCHMARK.json order. A
// layer the workload does not reach reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"machine.build_ms_per_node", "ms"},
	{"machine.build_alloc_mb", "MB"},
	{"machine.stage.arrive_ns", "ns"},
	{"machine.stage.dispatch_ns", "ns"},
	{"machine.stage.start_ns", "ns"},
	{"machine.stage.complete_ns", "ns"},
	{"machine.blocked_arrivals", "count"},
	{"machine.reply_stalls", "count"},
	{"sim.events_per_req", "count"},
	{"sim.ns_per_event", "ns"},
	{"cluster.picks", "count"},
	{"cluster.pick_ns", "ns"},
	{"cluster.global.picks", "count"},
	{"cluster.global.pick_ns", "ns"},
	{"cluster.stage.balancer-recv_ns", "ns"},
	{"cluster.stage.forward_ns", "ns"},
	{"cluster.imbalance", "ratio"},
	{"pdes.rounds", "count"},
	{"pdes.reqs_per_round", "count"},
	{"pdes.cpu_util", "ratio"},
	{"pdes.exchange_frac", "ratio"},
	{"pdes.speedup", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.tail_ns_per_req", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"core.cells", "count"},
	{"core.cpu_util", "ratio"},
}

const (
	// tailK is the TailSamples setting whose cost trace.tail_ns_per_req
	// reports.
	tailK = 64
	// spanEvery keeps the phase spans of one request ID in spanEvery.
	spanEvery = 1024
	// pickSpanEvery keeps one balancer pick span in pickSpanEvery.
	pickSpanEvery = 4096
)

// epoch anchors clock, the benchmark's monotonic host timestamp.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// layerRun collects one traced run: per-layer metrics, the checks every
// measured run passed or failed, and the spans to write out.
type layerRun struct {
	m         map[string]float64
	problems  []string
	attempted int
	failed    int
	spans     []spanRec
	notes     map[string]string
}

// check counts one run with its problems.
func (t *layerRun) check(probs ...string) {
	t.attempted++
	if len(probs) > 0 {
		t.failed++
		t.problems = append(t.problems, probs...)
	}
}

// same checks that a variant of a run left the modelled result unchanged.
func same(what string, got, want rep) []string {
	p := got.problems
	if got.digest != want.digest {
		p = append(p, fmt.Sprintf("%s changed the modelled result: digest %s, untraced %s", what, got.digest, want.digest))
	}
	return p
}

// hostLayers records the Go runtime's share of an untraced repetition.
func (t *layerRun) hostLayers(base rep) {
	t.m["runtime.gc_cycles"] = float64(base.host.gcCycles)
	t.m["runtime.gc_cpu_frac"] = base.host.gcCPUFrac
}

func tracedRun(w workloadDef, seed uint64, short bool) (record, error) {
	t := &layerRun{m: map[string]float64{}, notes: map[string]string{}}
	sc := w.make(seed, short)
	// A warm-up repetition, as in the timed run, so the untraced base the
	// traced variants are compared with does not carry the process's
	// first-run GC state.
	if _, err := sc.rep(); err != nil {
		return record{}, err
	}
	if err := sc.layers(t); err != nil {
		return record{}, err
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		out[d.name] = metric{t.m[d.name], d.unit}
	}
	return record{
		Result:   result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out},
		Problems: t.problems,
		Notes:    t.notes,
		spans:    t.spans,
	}, nil
}

// stageClock is the traced runs' trace.Recorder on a serial engine. Each
// event stamps the monotonic clock and charges the host time since the
// previous event to the event's phase: an approximate attribution, good
// enough to rank the stages.
type stageClock struct {
	last  int64
	ns    [8]int64
	count [8]int64
	kept  []stamped
}

type stamped struct {
	e    trace.Event
	host int64
}

func (c *stageClock) Record(e trace.Event) {
	now := clock()
	if int(e.Phase) < len(c.ns) {
		if c.last != 0 {
			c.ns[e.Phase] += now - c.last
		}
		c.count[e.Phase]++
	}
	c.last = now
	if e.ReqID%spanEvery == 0 {
		c.kept = append(c.kept, stamped{e, now})
	}
}

func (c *stageClock) perReq(p trace.Phase, completed int) float64 {
	return float64(c.ns[p]) / float64(completed)
}

// machineConsistency checks the stage accounting of a run with `completed`
// completions: one complete event each, earlier phases counted at least as
// often as later ones, and stage time within the simulate wall time.
func (c *stageClock) machineConsistency(completed int, simWall time.Duration) []string {
	var p []string
	if got := c.count[trace.PhaseComplete]; got != int64(completed) {
		p = append(p, fmt.Sprintf("%d complete events for %d completions", got, completed))
	}
	order := []trace.Phase{trace.PhaseArrive, trace.PhaseDispatch, trace.PhaseStart, trace.PhaseComplete}
	for i := 1; i < len(order); i++ {
		if c.count[order[i-1]] < c.count[order[i]] {
			p = append(p, fmt.Sprintf("%d %s events but %d %s events", c.count[order[i-1]], order[i-1], c.count[order[i]], order[i]))
		}
	}
	var total int64
	for _, ns := range c.ns {
		total += ns
	}
	if total > simWall.Nanoseconds() {
		p = append(p, fmt.Sprintf("stage host time %d ns exceeds simulate wall %d ns", total, simWall.Nanoseconds()))
	}
	return p
}

// setMachineStages reports host ns per completed request for each machine
// stage.
func (t *layerRun) setMachineStages(c *stageClock, completed int) {
	t.m["machine.stage.arrive_ns"] = c.perReq(trace.PhaseArrive, completed)
	t.m["machine.stage.dispatch_ns"] = c.perReq(trace.PhaseDispatch, completed)
	t.m["machine.stage.start_ns"] = c.perReq(trace.PhaseStart, completed)
	t.m["machine.stage.complete_ns"] = c.perReq(trace.PhaseComplete, completed)
}

// roundClock is the trace.Recorder on a sharded run. The pdes coordinator
// hands a round's events to the recorder in one burst at the exchange, and
// a round covers the virtual interval (kW-W, kW] of window W, so a change of
// round index starts a new burst.
type roundClock struct {
	window     sim.Duration
	round      int64
	bursts     int
	burstStart int64
	burstLast  int64
	burstNs    int64
	count      [8]int64
	lastAt     sim.Time
}

func (c *roundClock) Record(e trace.Event) {
	now := clock()
	if k := int64(e.At-1) / int64(c.window); c.bursts == 0 || k != c.round {
		c.burstNs += c.burstLast - c.burstStart
		c.bursts++
		c.round = k
		c.burstStart = now
	}
	c.burstLast = now
	if int(e.Phase) < len(c.count) {
		c.count[e.Phase]++
	}
	c.lastAt = max(c.lastAt, e.At)
}

func (c *roundClock) finish() { c.burstNs += c.burstLast - c.burstStart }

// pickMeter wraps a cluster.Policy and every clone the cluster makes of it.
// Each wrapper delegates Pick, Clone and String to the policy it wraps, so
// the balancer's depth-index fast path is kept; it stamps the first pick of
// the run (the end of construction) and, when timed, the host time of every
// pick. Clones run on their own shard goroutines and keep their own counts,
// summed once the run has returned.
type pickMeter struct {
	first  *atomic.Int64
	timed  bool
	mu     sync.Mutex
	clones []*meteredPolicy
}

func newPickMeter(first *atomic.Int64, timed bool) *pickMeter {
	return &pickMeter{first: first, timed: timed}
}

func (m *pickMeter) wrap(p cluster.Policy) cluster.Policy {
	w := &meteredPolicy{inner: p, meter: m}
	m.mu.Lock()
	m.clones = append(m.clones, w)
	m.mu.Unlock()
	return w
}

// totals sums picks and pick host time over every clone.
func (m *pickMeter) totals() (picks, ns int64) {
	for _, c := range m.clones {
		picks += c.picks
		ns += c.ns
	}
	return picks, ns
}

type meteredPolicy struct {
	inner cluster.Policy
	meter *pickMeter
	picks int64
	ns    int64
	kept  [][2]int64
}

func (p *meteredPolicy) Pick(v cluster.View, r *rng.Source) int {
	if p.meter.first.Load() == 0 {
		p.meter.first.CompareAndSwap(0, clock())
	}
	if !p.meter.timed {
		return p.inner.Pick(v, r)
	}
	t0 := clock()
	n := p.inner.Pick(v, r)
	t1 := clock()
	p.ns += t1 - t0
	if p.picks%pickSpanEvery == 0 {
		p.kept = append(p.kept, [2]int64{t0, t1})
	}
	p.picks++
	return n
}

func (p *meteredPolicy) Clone() cluster.Policy { return p.meter.wrap(p.inner.Clone()) }
func (p *meteredPolicy) String() string        { return p.inner.String() }

// setPicks reports a tier's picks and checks them against the routing
// events the trace saw: one per routed request.
func (t *layerRun) setPicks(prefix string, m *pickMeter, routed int64) []string {
	picks, ns := m.totals()
	t.m[prefix+".picks"] = float64(picks)
	if picks > 0 {
		t.m[prefix+".pick_ns"] = float64(ns) / float64(picks)
	}
	for _, c := range m.clones {
		for _, k := range c.kept {
			t.spans = append(t.spans, spanRec{Trace: "bench", Name: prefix + ".pick", Parent: "simulate", Clock: "host", Start: k[0], End: k[1]})
		}
	}
	if picks != routed {
		return []string{fmt.Sprintf("%s: %d picks for %d routed requests", prefix, picks, routed)}
	}
	return nil
}

// benchSpans records the benchmark's own build and simulate spans of a run.
func (t *layerRun) benchSpans(r rep) {
	t.spans = append(t.spans,
		spanRec{Trace: "bench", Name: "build", Parent: "run", Clock: "host", Start: r.start, End: r.start + r.setup.Nanoseconds()},
		spanRec{Trace: "bench", Name: "simulate", Parent: "run", Clock: "host", Start: r.start + r.setup.Nanoseconds(), End: r.start + r.wall.Nanoseconds()})
}

// requestSpans turns the kept events into per-request phase spans: each
// phase spans from the previous phase of the same request to its own event,
// in simulated time, with the host stamps of both ends.
func (t *layerRun) requestSpans(kept []stamped) {
	byReq := map[uint64][]stamped{}
	var ids []uint64
	for _, s := range kept {
		if _, ok := byReq[s.e.ReqID]; !ok {
			ids = append(ids, s.e.ReqID)
		}
		byReq[s.e.ReqID] = append(byReq[s.e.ReqID], s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ev := byReq[id]
		sort.SliceStable(ev, func(i, j int) bool { return ev[i].e.Phase.Rank() < ev[j].e.Phase.Rank() })
		prev := ev[0]
		for i, s := range ev {
			sp := spanRec{
				Trace: fmt.Sprintf("req-%d", id), Name: s.e.Phase.String(), Clock: "sim",
				Start: int64(prev.e.At), End: int64(s.e.At), HostStart: prev.host, HostEnd: s.host,
				Node: s.e.Node, Core: s.e.Core,
			}
			if i > 0 {
				sp.Parent = prev.e.Phase.String()
			}
			t.spans = append(t.spans, sp)
			prev = s
		}
	}
}

// spanRec is one line of the spans file.
type spanRec struct {
	Trace     string `json:"trace"`
	Name      string `json:"name"`
	Parent    string `json:"parent,omitempty"`
	Clock     string `json:"clock"` // "sim": virtual ns; "host": benchmark clock ns
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	HostStart int64  `json:"host_start_ns,omitempty"`
	HostEnd   int64  `json:"host_end_ns,omitempty"`
	Node      int    `json:"node,omitempty"`
	Core      int    `json:"core,omitempty"`
}

// simLayer drives one machine through machine.NewShared and Inject on an
// engine of its own, as cluster.Run does for each node, with Poisson
// arrivals at rateMRPS, and reports the engine's events per request and
// host ns per event.
func (t *layerRun) simLayer(node machine.Config, rateMRPS float64, seed uint64, completions int) error {
	eng := sim.New()
	node.Seed = seed
	m, err := machine.NewShared(node, eng)
	if err != nil {
		return fmt.Errorf("sim layer: %w", err)
	}
	src := rngFor(seed)
	gap := arrival.PoissonAtMRPS(rateMRPS)
	done := 0
	onDone := func(int, bool) {
		done++
		if done == completions {
			eng.Stop()
		}
	}
	var arrive func()
	arrive = func() {
		m.Inject(onDone)
		eng.Schedule(gap.Next(src), arrive)
	}
	eng.Schedule(gap.Next(src), arrive)
	t0 := time.Now()
	eng.Run()
	wall := time.Since(t0)
	fired := float64(eng.Fired())
	t.m["sim.events_per_req"] = fired / float64(done)
	t.m["sim.ns_per_event"] = float64(wall.Nanoseconds()) / fired
	if done != completions {
		t.check(fmt.Sprintf("sim layer: %d of %d completions", done, completions))
	} else {
		t.check()
	}
	return nil
}

// simLayerCompletions sizes the sim-layer run: as many completions as one
// run of the workload, up to 200k.
func simLayerCompletions(workload int) int { return min(workload, 200_000) }

// tracedMachine runs cfg with the stage clock on its Trace hook and checks
// the result against the untraced run base.
func (t *layerRun) tracedMachine(cfg machine.Config, base rep) (rep, error) {
	sc := &stageClock{}
	cfg.Trace = sc
	r, err := (&machineScenario{cfg: cfg}).rep()
	if err != nil {
		return r, err
	}
	t.check(append(same("tracing", r, base), sc.machineConsistency(r.completions, r.simWall)...)...)
	t.setMachineStages(sc, r.completions)
	t.benchSpans(r)
	t.requestSpans(sc.kept)
	return r, nil
}

func overhead(traced, base rep) float64 { return traced.wall.Seconds()/base.wall.Seconds() - 1 }

func tailNsPerReq(tail, base rep) float64 {
	return float64((tail.wall - base.wall).Nanoseconds()) / float64(base.completions)
}

func (s *machineScenario) layers(t *layerRun) error {
	base, err := s.rep()
	if err != nil {
		return err
	}
	t.check(base.problems...)
	t.hostLayers(base)
	t.m["machine.blocked_arrivals"] = float64(base.blocked)
	t.m["machine.reply_stalls"] = float64(base.stalls)

	runtime.GC()
	debug.FreeOSMemory()
	d, b, err := allocated(func() error {
		_, err := machine.New(s.cfg)
		return err
	})
	if err != nil {
		return err
	}
	t.m["machine.build_ms_per_node"] = float64(d.Nanoseconds()) / 1e6
	t.m["machine.build_alloc_mb"] = float64(b) / 1e6

	traced, err := t.tracedMachine(s.cfg, base)
	if err != nil {
		return err
	}
	t.m["trace.overhead_frac"] = overhead(traced, base)

	tail := s.cfg
	tail.TailSamples = tailK
	tr, err := (&machineScenario{cfg: tail}).rep()
	if err != nil {
		return err
	}
	t.check(same("TailSamples", tr, base)...)
	t.m["trace.tail_ns_per_req"] = tailNsPerReq(tr, base)
	return t.simLayer(s.cfg, s.cfg.RateMRPS, s.cfg.Seed, simLayerCompletions(base.completions))
}

// buildNodes constructs every node of cfg with machine.NewShared on one
// fresh engine, keeping them all live as cluster.Run does: the construction
// cluster.Run performs, timed from outside.
func buildNodes(cfg cluster.Config) (time.Duration, uint64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	nodes := make([]*machine.Machine, cfg.Nodes)
	d, b, err := allocated(func() error {
		eng := sim.New()
		for i := range nodes {
			n := cfg.Node
			n.Seed = uint64(i)
			var err error
			if nodes[i], err = machine.NewShared(n, eng); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.KeepAlive(nodes)
	return d, b, err
}

// tracedCluster runs cfg with timed pick meters and rec on its Trace hook,
// and checks that the modelled result matches base.
func (s *clusterScenario) tracedCluster(rec trace.Recorder, base rep) (rep, *pickMeter, *pickMeter, []string, error) {
	c, rack, global := s.metered(true)
	c.Trace = rec
	var r rep
	res, err := runCluster(c, rack, &r)
	if err != nil {
		return r, nil, nil, nil, err
	}
	r.fromCluster(c, res)
	return r, rack, global, same("tracing", r, base), nil
}

func (s *clusterScenario) layers(t *layerRun) error {
	sharded := s.cfg.Shards > 1
	base, err := s.rep()
	if err != nil {
		return err
	}
	t.check(base.problems...)
	t.hostLayers(base)
	t.m["cluster.imbalance"] = base.imbalance

	d, b, err := buildNodes(s.cfg)
	if err != nil {
		return err
	}
	t.m["machine.build_ms_per_node"] = float64(d.Nanoseconds()) / 1e6 / float64(s.cfg.Nodes)
	t.m["machine.build_alloc_mb"] = float64(b) / 1e6

	// Host-stamped stage times come from the serial engine only.
	serial := &clusterScenario{cfg: s.cfg}
	serial.cfg.Shards = 0
	serialBase := base
	if sharded {
		if serialBase, err = serial.rep(); err != nil {
			return err
		}
		t.check(serialBase.problems...)
		t.m["pdes.speedup"] = serialBase.wall.Seconds() / base.wall.Seconds()
		t.m["pdes.cpu_util"] = base.host.cpuUtil
	}
	sc := &stageClock{}
	tr, rack, global, probs, err := serial.tracedCluster(sc, serialBase)
	if err != nil {
		return err
	}
	probs = append(probs, sc.machineConsistency(tr.completions, tr.simWall)...)
	if sc.count[trace.PhaseBalancerRecv] != sc.count[trace.PhaseForward] {
		probs = append(probs, fmt.Sprintf("%d balancer-recv events, %d forward events", sc.count[trace.PhaseBalancerRecv], sc.count[trace.PhaseForward]))
	}
	t.setMachineStages(sc, tr.completions)
	t.m["cluster.stage.balancer-recv_ns"] = sc.perReq(trace.PhaseBalancerRecv, tr.completions)
	t.m["cluster.stage.forward_ns"] = sc.perReq(trace.PhaseForward, tr.completions)
	t.benchSpans(tr)
	t.requestSpans(sc.kept)
	if !sharded {
		probs = append(probs, t.setPicks("cluster", rack, sc.count[trace.PhaseForward])...)
		t.m["trace.overhead_frac"] = overhead(tr, base)
	}
	t.check(probs...)

	if sharded {
		rc := &roundClock{window: s.cfg.GlobalHop}
		tr, rack, global, probs, err = s.tracedCluster(rc, base)
		if err != nil {
			return err
		}
		rc.finish()
		probs = append(probs, t.setPicks("cluster", rack, rc.count[trace.PhaseForward])...)
		probs = append(probs, t.setPicks("cluster.global", global, rc.count[trace.PhaseGlobalForward])...)
		t.check(probs...)
		t.m["pdes.rounds"] = float64(rc.bursts)
		t.m["pdes.reqs_per_round"] = float64(tr.completions) / float64(rc.bursts)
		t.m["pdes.exchange_frac"] = float64(rc.burstNs) / float64(tr.wall.Nanoseconds())
		t.m["trace.overhead_frac"] = overhead(tr, base)
		span := int64(rc.lastAt-1)/int64(rc.window) + 1
		t.notes["pdes.rounds"] = fmt.Sprintf("%d bursts; simulated span %v over a %gns window is %d rounds", rc.bursts, rc.lastAt, rc.window.Nanos(), span)
	}

	tail := &clusterScenario{cfg: s.cfg}
	tail.cfg.TailSamples = tailK
	tl, err := tail.rep()
	if err != nil {
		return err
	}
	t.check(same("TailSamples", tl, base)...)
	t.m["trace.tail_ns_per_req"] = tailNsPerReq(tl, base)
	return t.simLayer(s.cfg.Node, s.cfg.RateMRPS/float64(s.cfg.Nodes), s.cfg.Seed, simLayerCompletions(base.completions))
}

// cellCounter counts simulations through the Trace hook: with TraceSample
// at its maximum only request 0 of each machine run is recorded, and every
// run has exactly one request 0 arrival.
type cellCounter struct{ cells atomic.Int64 }

func (c *cellCounter) Record(e trace.Event) {
	if e.Phase == trace.PhaseArrive {
		c.cells.Add(1)
	}
}

func (s *sweepScenario) layers(t *layerRun) error {
	base, err := s.rep()
	if err != nil {
		return err
	}
	t.check(base.problems...)
	t.hostLayers(base)
	t.m["core.cpu_util"] = base.host.cpuUtil
	t.m["machine.blocked_arrivals"] = float64(base.blocked)
	t.m["machine.reply_stalls"] = float64(base.stalls)

	d, b, err := s.buildGrid()
	if err != nil {
		return err
	}
	built := len(sweepModes) * s.points
	t.m["machine.build_ms_per_node"] = float64(d.Nanoseconds()) / 1e6 / float64(built)
	t.m["machine.build_alloc_mb"] = float64(b) / 1e6

	// The sweep with the cell counter on every cell's Trace hook.
	cc := &cellCounter{}
	var out sweepOut
	var counted rep
	counted.host, err = metered(func() error {
		t0 := time.Now()
		out, err = s.sweep(func(c *machine.Config) { c.Trace, c.TraceSample = cc, math.MaxInt })
		counted.wall = time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	if err := s.finish(&counted, out); err != nil {
		return err
	}
	probs := same("the cell counter", counted, base)
	if n := cc.cells.Load(); n != int64(out.cells) {
		probs = append(probs, fmt.Sprintf("trace hook counted %d cells, the sweep ran %d", n, out.cells))
	}
	t.check(probs...)
	t.m["core.cells"] = float64(cc.cells.Load())
	t.m["trace.overhead_frac"] = overhead(counted, base)

	// Stage times come from the reference 1x16 cell, re-run serially.
	kcfg := s.cellConfig(s.refCell())
	kbase, err := (&machineScenario{cfg: kcfg}).rep()
	if err != nil {
		return err
	}
	t.check(kbase.problems...)
	if _, err := t.tracedMachine(kcfg, kbase); err != nil {
		return err
	}

	var tail rep
	tail.host, err = metered(func() error {
		t0 := time.Now()
		_, err := s.sweep(func(c *machine.Config) { c.TailSamples = tailK })
		tail.wall = time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	t.check()
	t.m["trace.tail_ns_per_req"] = tailNsPerReq(tail, base)
	sq := s.base(machine.ModeSingleQueue)
	return t.simLayer(sq, kcfg.RateMRPS, s.seed, simLayerCompletions(s.warmup+s.measure))
}
