package cluster

// run.go: the one cluster runner. Every topology and every engine layout
// runs through it. A request crosses a tier chain — an optional global tier
// over the racks, then its rack's tier over the rack's nodes, then the node
// — and a partition (Config.partition) decides which engine each tier and
// node lives on and which single hop, if any, is cut between engines:
//
//   - no cut (Shards <= 1): everything on one engine, every hop a plain
//     engine event. The flat cluster is one rack with no global tier, and a
//     zero GlobalHop delivers synchronously, so one rack behind a zero-hop
//     global tier replays the flat cluster byte for byte.
//   - the node hop (flat, Shards > 1): the arrival stream and the one rack
//     tier on the front engine, the nodes in min(Shards, Nodes) contiguous
//     groups of one engine each.
//   - the global hop (Racks >= 1, Shards > 1): the arrival stream and the
//     global tier on the front engine, each rack — its tier and its nodes —
//     on an engine of its own.
//
// A cut run advances in lockstep rounds one cut hop wide (internal/sim/pdes):
// the cut hop is the conservative lookahead. Messages crossing the cut merge
// by (time, request id) and trace events flush per round sorted by (At,
// ReqID, phase rank) — keys independent of the partition — and every RNG
// stream splits off the seed in the same order on every layout (arrival,
// rack tiers, nodes, then the global tier last), so a sharded Result is the
// same at every shard count ≥ 2. Its only difference from the serial engine
// is feedback latency: tiers across the cut learn of a completion one cut
// hop after it happens (the notification crosses the network back), while
// the measurement stream is stamped with the true completion time.
//
// Rack-scoped faults (NodeFault.Rack) degrade every node of the rack, and
// their pause windows also freeze the rack tier: a request reaching a frozen
// rack balancer waits, in arrival order, for the window to close. The stall
// lands in the request's global-hop leg (global-forward → balancer-recv).

import (
	"fmt"
	"sort"

	"rpcvalet/internal/arrival"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/metrics"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/sim/pdes"
	"rpcvalet/internal/trace"
)

// partition maps a run onto engines: groups node-side engines plus the front
// engine, and the latency of the one hop cut between them — the pdes
// lookahead. groups is 0 (and cut 0) when the whole run shares one engine.
type partition struct {
	groups   int
	cut      sim.Duration
	atGlobal bool // the cut is the global hop (an engine per rack), else the node hop
}

func (c Config) partition() partition {
	switch {
	case c.Shards <= 1:
		return partition{}
	case c.Racks > 0:
		return partition{groups: c.Racks, cut: c.GlobalHop, atGlobal: true}
	case min(c.Shards, c.Nodes) > 1:
		return partition{groups: min(c.Shards, c.Nodes), cut: c.Hop}
	}
	return partition{}
}

// Engines reports how many event engines — one goroutine each — a Run of the
// config occupies: 1 on the single-engine path, the node-side engines plus
// the front engine on a partitioned run. Sweep layers divide their worker
// budget by it.
func (c Config) Engines() int { return c.partition().groups + 1 }

// req is the pooled per-request tracker, and the payload of every message
// crossing the cut: the routed request one way, its completion the other.
type req struct {
	id       uint64   // cluster-wide sequence number
	rack     int      // rack the global tier chose (0 without one)
	node     int      // node the rack tier chose, -1 until it has
	sent     sim.Time // ingress at the first tier, the latency epoch
	measured bool     // set at completion
}

// part is one engine of the partition and the state its goroutine owns. The
// engine is held by value: allocated apart, the small engine structs of a
// partitioned run pack into shared cache lines that every event on every
// goroutine writes.
type part struct {
	eng  sim.Engine
	emit func(trace.Event) // nil with tracing off
	buf  []trace.Event     // partitioned runs: this round's events, flushed at exchange
	out  pdes.Mailbox[req] // this round's messages across the cut
	pool []*req
	err  error // a policy failure; the engine stops and the run fails
}

// get pops a recycled tracker, allocating only while the pool warms up.
func (p *part) get() *req {
	if n := len(p.pool); n > 0 {
		q := p.pool[n-1]
		p.pool = p.pool[:n-1]
		return q
	}
	return &req{}
}

// fail records a policy failure and stops the engine; the run then fails.
func (p *part) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.eng.Stop()
}

// rack is one rack tier over its contiguous node range, on its engine, with
// the pause windows that freeze it.
type rack struct {
	*tier
	p      *part
	start  int
	pauses []machine.Pause
}

// nodeTracer adapts one node's machine-internal trace stream to the
// cluster-wide view: machines number injected requests 0,1,2,... in inject
// order, so the cluster appends each request's cluster-wide sequence number
// to ids at inject time and the machine's request ID indexes it directly.
// Every event is re-labeled with the cluster ID and the node index before
// reaching its engine's sink.
type nodeTracer struct {
	node int
	ids  []uint64
	emit func(trace.Event)
}

// Record implements trace.Recorder.
func (t *nodeTracer) Record(e trace.Event) {
	e.ReqID = t.ids[e.ReqID]
	e.Node = t.node
	t.emit(e)
}

// runner is one simulation in flight.
type runner struct {
	cfg      Config
	pt       partition
	parts    []*part // the front engine, then the node-side engines
	front    *part
	global   *tier // nil on the flat cluster
	racks    []*rack
	nodes    []*machine.Machine
	nodePart []*part
	tracers  []*nodeTracer // nil with tracing off

	// Tracing sinks: tail sees every request (exact K-slowest), the user
	// Recorder one request in sampleN. Both off leaves sink nil, and no
	// trace code touches the run.
	tail    *trace.TailSampler
	sampleN uint64
	sink    func(trace.Event)

	// The front engine's bookkeeping. totalOut counts requests dispatched
	// and not yet known to be complete.
	gaps                         *arrival.Batch
	rec                          *metrics.Recorder
	faults, rackFaults           []machine.Fault
	seq                          uint64
	totalOut, completed          int
	nodeCompleted, rackCompleted []int
	timedOut, halt               bool

	// Event callbacks, bound once so scheduling allocates no closures.
	arriveFn                    func()
	recvFn, injectFn, deliverFn func(any)
	doneFn                      func(any, int, bool)

	// Exchange scratch, reused every round.
	scratch []pdes.Msg[req]
	backs   []*pdes.Mailbox[req] // the node-side engines' outboxes
	events  []trace.Event
}

// Run simulates the configured cluster and returns its measurements.
// Identical configurations produce identical results: the nodes, the
// arrival stream, and the policies all draw from streams split off
// cfg.Seed, and the run executes on one deterministic engine — or, with
// Config.Shards > 1, on several engines advanced in deterministic
// lookahead rounds.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	r, err := newRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	return r.run()
}

// run advances the built simulation to its end and assembles the result.
func (r *runner) run() (Result, error) {
	if r.pt.groups == 0 {
		r.front.eng.Run()
	} else {
		rounds := make([]pdes.RoundFunc, len(r.parts))
		for i, p := range r.parts {
			rounds[i] = func(d sim.Time) { p.eng.RunUntil(d) }
		}
		pdes.Run(r.pt.cut, rounds, r.exchange)
	}
	if err := r.err(); err != nil {
		return Result{}, err
	}
	return r.assemble(), nil
}

// newRunner builds the partition's engines, the tier chain and the nodes,
// and schedules the first arrival.
func newRunner(cfg Config) (*runner, error) {
	r := &runner{cfg: cfg, pt: cfg.partition(), sampleN: 1}
	r.arriveFn, r.recvFn, r.injectFn, r.deliverFn, r.doneFn = r.arrive, r.recv, r.inject, r.deliver, r.done
	if cfg.TailSamples > 0 {
		r.tail = trace.NewTailSampler(cfg.TailSamples)
	}
	if cfg.TraceSample > 1 {
		r.sampleN = uint64(cfg.TraceSample)
	}
	if cfg.Trace != nil || r.tail != nil {
		r.sink = r.record
	}

	r.parts = make([]*part, r.pt.groups+1)
	for i := range r.parts {
		p := &part{}
		switch {
		case r.sink == nil:
		case r.pt.groups == 0:
			p.emit = r.sink
		default:
			p.emit = func(e trace.Event) { p.buf = append(p.buf, e) }
		}
		r.parts[i] = p
		if i > 0 {
			r.backs = append(r.backs, &p.out)
		}
	}
	r.front = r.parts[0]

	root := rng.New(cfg.Seed)
	arrRNG := root.Split()
	size, start := rackGeometry(cfg)
	var rackPauses [][]machine.Pause
	r.faults, rackPauses, r.rackFaults = expandFaults(cfg, size, start)
	r.nodePart = make([]*part, cfg.Nodes)
	r.racks = make([]*rack, len(size))
	for k := range r.racks {
		// Rack 0 reuses cfg.Policy itself, later racks run clones.
		pol := cfg.Policy
		if k > 0 {
			pol = cfg.Policy.Clone()
		}
		rk := &rack{tier: newTier(pol, root.Split(), size[k], cfg.SampleEvery == 0),
			p: r.front, start: start[k], pauses: rackPauses[k]}
		if r.pt.atGlobal {
			rk.p = r.parts[1+k]
		}
		rk.across = r.pt.groups > 0 && !r.pt.atGlobal
		for i := start[k]; i < start[k]+size[k]; i++ {
			r.nodePart[i] = rk.p
		}
		rk.scheduleRefresh(&rk.p.eng, cfg.SampleEvery, nil)
		r.racks[k] = rk
	}
	if g := r.pt.groups; g > 0 && !r.pt.atGlobal {
		// Contiguous node groups: group s owns nodes [s·N/g, (s+1)·N/g).
		for s := 0; s < g; s++ {
			for i := s * cfg.Nodes / g; i < (s+1)*cfg.Nodes/g; i++ {
				r.nodePart[i] = r.parts[1+s]
			}
		}
	}

	r.nodes = make([]*machine.Machine, cfg.Nodes)
	if r.sink != nil {
		r.tracers = make([]*nodeTracer, cfg.Nodes)
	}
	for i := range r.nodes {
		ncfg := cfg.Node
		ncfg.Seed = root.Split().Uint64()
		ncfg.Epoch = cfg.Epoch
		ncfg.MaxEpochs = cfg.MaxEpochs
		if len(cfg.NodePlans) > 0 && cfg.NodePlans[i] != nil {
			ncfg.Params.Plan = cfg.NodePlans[i]
		}
		ncfg.Slowdown = r.faults[i].Slowdown
		ncfg.Pauses = r.faults[i].Pauses
		if r.tracers != nil {
			r.tracers[i] = &nodeTracer{node: i, emit: r.nodePart[i].emit}
			ncfg.Trace = r.tracers[i]
			ncfg.TraceSample = 0 // sampling happens on cluster IDs, in record
			ncfg.TailSamples = 0 // the cluster-level tail splices the hops in
		}
		m, err := machine.NewShared(ncfg, &r.nodePart[i].eng)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		r.nodes[i] = m
	}

	// The global tier's stream splits after every rack and node stream, so a
	// one-rack topology's derivation matches the flat cluster's. Live, it
	// tracks its own dispatch/completion accounting; stale, it scrapes each
	// rack tier's published aggregate depth (single-engine runs only).
	globalRNG := root.Split()
	if cfg.Racks > 0 {
		r.global = newTier(cfg.GlobalPolicy, globalRNG, cfg.Racks, cfg.GlobalSampleEvery == 0)
		r.global.across = r.pt.groups > 0
		r.global.scheduleRefresh(&r.front.eng, cfg.GlobalSampleEvery, func(k int) int { return r.racks[k].aggregate() })
	}

	r.nodeCompleted = make([]int, cfg.Nodes)
	r.rackCompleted = make([]int, len(size))
	r.rec = metrics.NewRecorder(metrics.Config{EpochNanos: cfg.Epoch.Nanos(), MaxEpochs: cfg.MaxEpochs, Expect: cfg.Measure})
	if cfg.MaxSimTime > 0 {
		r.front.eng.Schedule(cfg.MaxSimTime, func() {
			r.timedOut = true
			r.stop()
		})
	}
	r.gaps = arrival.NewBatch(arrival.Resolve(cfg.Arrival, cfg.RateMRPS), arrRNG, 0)
	r.front.eng.Schedule(r.gaps.Next(), r.arriveFn)
	return r, nil
}

// record feeds one event to the tracing sinks.
func (r *runner) record(e trace.Event) {
	if r.tail != nil {
		r.tail.Record(e)
	}
	if r.cfg.Trace != nil && e.ReqID%r.sampleN == 0 {
		r.cfg.Trace.Record(e)
	}
}

// stop ends the run: the front engine halts, and so does a partitioned run
// at the next exchange.
func (r *runner) stop() {
	r.halt = true
	r.front.eng.Stop()
}

// err is the run's first policy failure, the front engine's before any rack's.
func (r *runner) err() error {
	for _, p := range r.parts {
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// arrive is the front engine's ingress: number the request, let the global
// tier pick its rack, and forward it across the global hop — synchronously
// when there is no global tier or the hop is zero, so no intermediate event
// perturbs the engine's (time, seq) interleaving.
func (r *runner) arrive() {
	f := r.front
	q := f.get()
	q.id, q.rack, q.node, q.sent = r.seq, 0, -1, f.eng.Now()
	r.seq++
	if g := r.global; g != nil {
		if g.pol != nil {
			if q.rack = g.pick(); q.rack < 0 || q.rack >= r.cfg.Racks {
				f.fail(fmt.Errorf("cluster: global policy %s picked rack %d of %d", g.pol, q.rack, r.cfg.Racks))
				return
			}
		}
		if f.emit != nil {
			// Depths are the global tier's pre-decision view: outstanding at
			// ingress, its view of the chosen rack at forward.
			f.emit(trace.Event{ReqID: q.id, Phase: trace.PhaseGlobalRecv, At: q.sent, Core: -1, Node: -1, Depth: r.totalOut})
			f.emit(trace.Event{ReqID: q.id, Phase: trace.PhaseGlobalForward, At: q.sent, Core: -1, Node: q.rack, Depth: g.Depth(q.rack)})
		}
		g.dispatched(q.rack)
	}
	if r.global == nil || r.cfg.GlobalHop == 0 {
		r.recv(q)
	} else {
		r.forward(f, q, r.cfg.GlobalHop, r.pt.atGlobal, r.recvFn)
	}
	r.totalOut++
	f.eng.Schedule(r.gaps.Next(), r.arriveFn)
}

// recv is the rack tier receiving a request. A frozen balancer (rack-scoped
// pause window) defers the whole decision to the window's end — engine seq
// order keeps the deferred requests FIFO — and re-checks, so chained windows
// compound.
func (r *runner) recv(arg any) {
	q := arg.(*req)
	rk := r.racks[q.rack]
	p := rk.p
	if stall := machine.PauseStall(rk.pauses, p.eng.Now()); stall > 0 {
		p.eng.ScheduleArg(stall, r.recvFn, q)
		return
	}
	local := rk.pick()
	if local < 0 || local >= rk.Nodes() {
		err := fmt.Errorf("cluster: policy %s picked node %d of %d", rk.pol, local, rk.Nodes())
		if r.global != nil {
			err = fmt.Errorf("%v in rack %d", err, q.rack)
		}
		p.fail(err)
		return
	}
	q.node = rk.start + local
	if p.emit != nil {
		// The first tier's ingress depth is the cluster's outstanding count;
		// a rack tier under a global tier publishes its own aggregate.
		depth, now := rk.aggregate(), p.eng.Now()
		if r.global == nil {
			depth = r.totalOut
		}
		p.emit(trace.Event{ReqID: q.id, Phase: trace.PhaseBalancerRecv, At: now, Core: -1, Node: -1, Depth: depth})
		p.emit(trace.Event{ReqID: q.id, Phase: trace.PhaseForward, At: now, Core: -1, Node: q.node, Depth: rk.Depth(local)})
	}
	rk.dispatched(local)
	r.forward(p, q, r.cfg.Hop, rk.across, r.injectFn)
}

// forward carries q one hop of d from p's engine to fn: an event on the same
// engine, or — across the cut — a message the exchange schedules on the far
// engine for the same instant.
func (r *runner) forward(p *part, q *req, d sim.Duration, cut bool, fn func(any)) {
	if !cut {
		p.eng.ScheduleArgFixed(d, fn, q)
		return
	}
	p.out.Send(p.eng.Now().Add(d), q.id, *q)
	p.pool = append(p.pool, q)
}

// inject hands q, across its last hop, to the chosen node's NI.
func (r *runner) inject(arg any) {
	q := arg.(*req)
	if r.tracers != nil {
		// The machine numbers this inject len(ids); remember its cluster-wide
		// identity at that index.
		r.tracers[q.node].ids = append(r.tracers[q.node].ids, q.id)
	}
	r.nodes[q.node].InjectArg(r.doneFn, q)
}

// done runs on the node's engine when the handler completes. Tiers on the
// same engine learn of it at once; the front engine's accounting, and any
// tier across the cut, through a done message one cut hop later.
func (r *runner) done(arg any, _ int, measured bool) {
	q := arg.(*req)
	q.measured = measured
	// Known defect, kept so the pinned racks-as-shards results hold: a rack
	// tier on its rack's own engine is never told of completions, so its
	// view only grows and rack JSQ degenerates into "least cumulative
	// dispatches". The fix deletes this condition.
	if !r.pt.atGlobal {
		r.settle(q, false)
	}
	if r.pt.groups == 0 {
		r.deliver(q)
		return
	}
	r.forward(r.nodePart[q.node], q, r.pt.cut, true, nil)
}

// settle tells the tiers on q's path that q drained: those sharing the
// node's engine (across false) or those across the cut from it.
func (r *runner) settle(q *req, across bool) {
	if rk := r.racks[q.rack]; rk.across == across {
		rk.completed(q.node - rk.start)
	}
	if g := r.global; g != nil && g.across == across {
		g.completed(q.rack)
	}
}

// deliver books one completion on the front engine. The handler finished
// one cut hop before the notification arrives, and the measurement stream is
// stamped with that completion time so latency and epoch slicing match the
// single-engine definitions.
func (r *runner) deliver(arg any) {
	q := arg.(*req)
	c := r.front.eng.Now().Add(-r.pt.cut)
	r.settle(q, true)
	r.totalOut--
	r.completed++
	r.nodeCompleted[q.node]++
	r.rackCompleted[q.rack]++
	r.front.pool = append(r.front.pool, q)
	if r.completed == r.cfg.Warmup+1 {
		r.rec.OpenWindow(c)
	}
	r.rec.Complete(c, metrics.Completion{
		Class:     -1,
		Measured:  q.measured,
		LatencyNs: c.Sub(q.sent).Nanos(),
		WaitNs:    -1,
		ServiceNs: -1,
		Depth:     r.totalOut,
	})
	if r.completed >= r.cfg.Warmup+r.cfg.Measure {
		r.rec.CloseWindow(c)
		r.stop()
	}
}

// exchange runs single-threaded between rounds: it delivers the round's
// messages across the cut in (At, request id) order and flushes its trace
// events in (At, ReqID, phase rank) order — both partition-independent.
func (r *runner) exchange(sim.Time) bool {
	r.scratch = pdes.Gather(r.scratch, &r.front.out)
	for _, m := range r.scratch {
		dst, fn := r.racks[m.Payload.rack].p, r.recvFn
		if !r.pt.atGlobal {
			dst, fn = r.nodePart[m.Payload.node], r.injectFn
		}
		q := dst.get()
		*q = m.Payload
		dst.eng.ScheduleArgAt(m.At, fn, q)
	}
	r.scratch = pdes.Gather(r.scratch, r.backs...)
	for _, m := range r.scratch {
		q := r.front.get()
		*q = m.Payload
		r.front.eng.ScheduleArgAt(m.At, r.deliverFn, q)
	}
	if r.sink != nil {
		r.events = r.events[:0]
		for _, p := range r.parts {
			r.events = append(r.events, p.buf...)
			p.buf = p.buf[:0]
		}
		sort.Slice(r.events, func(i, j int) bool {
			a, b := r.events[i], r.events[j]
			if a.At != b.At {
				return a.At < b.At
			}
			if a.ReqID != b.ReqID {
				return a.ReqID < b.ReqID
			}
			return a.Phase.Rank() < b.Phase.Rank()
		})
		for _, e := range r.events {
			r.sink(e)
		}
	}
	return !r.halt && r.err() == nil
}

// rackGeometry resolves the rack partition of a validated config: each
// rack's node count and starting node index. The flat cluster is one rack
// of every node. Racks are contiguous: rack k owns nodes
// [start[k], start[k]+size[k]).
func rackGeometry(cfg Config) (size, start []int) {
	n := max(cfg.Racks, 1)
	size = make([]int, n)
	start = make([]int, n)
	at := 0
	for k := range size {
		if len(cfg.RackNodes) > 0 {
			size[k] = cfg.RackNodes[k]
		} else {
			size[k] = cfg.Nodes / n
		}
		start[k] = at
		at += size[k]
	}
	return size, start
}

// expandFaults resolves Config.Faults over the rack geometry: per-node
// machine faults (a rack-scoped entry fans out to every node of the rack,
// later entries overwriting earlier ones), each rack balancer's pause
// windows, and each rack's fault label for Result.RackFaults.
func expandFaults(cfg Config, size, start []int) (byNode []machine.Fault, pauses [][]machine.Pause, label []machine.Fault) {
	byNode = make([]machine.Fault, cfg.Nodes)
	pauses = make([][]machine.Pause, len(size))
	label = make([]machine.Fault, len(size))
	for _, f := range cfg.Faults {
		mf := machine.Fault{Slowdown: f.Slowdown, Pauses: f.Pauses}
		if !f.Rack {
			byNode[f.Node] = mf
			continue
		}
		k := f.Node
		for i := start[k]; i < start[k]+size[k]; i++ {
			byNode[i] = mf
		}
		pauses[k] = append(pauses[k], f.Pauses...)
		label[k] = mf
	}
	return byNode, pauses, label
}

// assemble builds the Result from the finished run's recorders and machines.
func (r *runner) assemble() Result {
	cfg := r.cfg
	res := Result{
		Policy:        cfg.Policy.String(),
		Nodes:         cfg.Nodes,
		RateMRPS:      cfg.RateMRPS,
		Seed:          cfg.Seed,
		Latency:       r.rec.Latency(),
		NodeCompleted: r.nodeCompleted,
		Completed:     r.completed,
		TimedOut:      r.timedOut,
		Timeline:      r.rec.Timeline(),
	}
	if r.tail != nil {
		res.TailSpans = r.tail.Spans()
	}
	if start, end := r.rec.Window(); end > start {
		res.ThroughputMRPS = float64(cfg.Measure-1) / end.Sub(start).Nanos() * 1000
	}
	if mean := float64(r.completed) / float64(cfg.Nodes); mean > 0 {
		maxN := 0
		for _, c := range r.nodeCompleted {
			maxN = max(maxN, c)
		}
		res.Imbalance = float64(maxN) / mean
	}
	for i, m := range r.nodes {
		res.NodeUtilization = append(res.NodeUtilization, m.MeanCoreUtilization())
		res.NodeDispatch = append(res.NodeDispatch, m.DispatchLabel())
		res.NodeFaults = append(res.NodeFaults, r.faults[i].String())
		res.NodeTimelines = append(res.NodeTimelines, m.Timeline())
	}
	if cfg.Racks > 0 {
		res.Racks = cfg.Racks
		if cfg.GlobalPolicy != nil {
			res.GlobalPolicy = cfg.GlobalPolicy.String()
		}
		res.RackCompleted = r.rackCompleted
		for _, f := range r.rackFaults {
			res.RackFaults = append(res.RackFaults, f.String())
		}
	}

	// SLO: absolute when the workload specifies one, otherwise the SLO
	// factor applied to the estimated mean service time (handler mean plus
	// fixed per-request core overhead) — the same S̄ CapacityMRPS uses.
	wl := cfg.Node.Workload
	if wl.SLONanos > 0 {
		res.SLONanos = wl.SLONanos
	} else {
		res.SLONanos = wl.SLOFactor * (wl.MeanService() + cfg.Node.Params.CoreOverheadNanos())
	}
	res.MeetsSLO = !r.timedOut && res.Latency.Count > 0 && res.Latency.P99 <= res.SLONanos
	return res
}
