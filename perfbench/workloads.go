package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"rpcvalet/internal/cluster"
	"rpcvalet/internal/core"
	"rpcvalet/internal/machine"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// defaultSeed is the seed the committed reference digests were recorded at.
const defaultSeed = 1

// load is the offered share of estimated capacity on the fixed-load
// workloads: open-loop Poisson, well below saturation, so no run backs up.
const load = 0.85

// hop is the one-way network latency of every balancer tier.
const hop = 500 * sim.Nanosecond

// scenario is one workload's configuration, generated from a seed.
type scenario interface {
	// rep runs one untraced repetition and checks its modelled output.
	rep() (rep, error)
	// layers runs the traced per-layer measurement.
	layers(t *layerRun) error
}

type workloadDef struct {
	name string
	make func(seed uint64, short bool) scenario
}

var workloadDefs = []workloadDef{
	{"node-steady", nodeSteady},
	{"slo-sweep", sloSweep},
	{"rack-1000", rack1000},
	{"hier-sharded", hierSharded},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	var n []string
	for _, w := range workloadDefs {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// nodeSteady is one 16-core server running the RPCValet 1x16 plan on HERD
// in one long single-threaded run: the engine, NI and machine stages do
// nearly all the work.
func nodeSteady(seed uint64, short bool) scenario {
	p := machine.Defaults()
	p.Mode = machine.ModeSingleQueue
	wl := workload.HERD()
	cfg := machine.Config{
		Params: p, Workload: wl,
		RateMRPS: load * core.CapacityMRPS(p, wl),
		Warmup:   10_000, Measure: 1_000_000,
		Seed: seed,
	}
	if short {
		cfg.Warmup, cfg.Measure = 1_000, 20_000
	}
	cfg.MaxSimTime = capSimTime(cfg.Warmup+cfg.Measure, cfg.RateMRPS)
	return &machineScenario{cfg: cfg}
}

// capSimTime bounds a run's virtual time at ten times what its completions
// need at the offered rate, a guard against a run that never finishes.
func capSimTime(completions int, rateMRPS float64) sim.Duration {
	return sim.FromNanos(float64(completions) / rateMRPS * 1000 * 10)
}

// clusterNode is the per-node template of the 1000-node workloads.
func clusterNode() machine.Config {
	return machine.Config{Params: machine.Defaults(), Workload: workload.SyntheticExp()}
}

// rack1000 is a flat cluster of 1000 nodes behind one full-JSQ balancer on
// the serial engine.
func rack1000(seed uint64, short bool) scenario {
	node := clusterNode()
	cfg := cluster.Config{
		Nodes: 1000, Node: node,
		Policy: cluster.JSQ{D: cluster.FullScan},
		Hop:    hop,
		Warmup: 2_000, Measure: 100_000,
		Seed: seed,
	}
	if short {
		cfg.Nodes, cfg.Warmup, cfg.Measure = 40, 200, 4_000
	}
	cfg.RateMRPS = load * float64(cfg.Nodes) * core.CapacityMRPS(node.Params, node.Workload)
	cfg.MaxSimTime = capSimTime(cfg.Warmup+cfg.Measure, cfg.RateMRPS)
	return &clusterScenario{cfg: cfg}
}

// hierSharded is a two-tier cluster of 1000 nodes in 8 racks, full JSQ at
// both tiers, with each rack on its own engine under the pdes coordinator.
func hierSharded(seed uint64, short bool) scenario {
	node := clusterNode()
	cfg := cluster.Config{
		Nodes: 1000, Node: node,
		Policy: cluster.JSQ{D: cluster.FullScan},
		Hop:    hop,
		Racks:  8, GlobalPolicy: cluster.JSQ{D: cluster.FullScan}, GlobalHop: hop,
		Shards: 8,
		Warmup: 2_000, Measure: 300_000,
		Seed: seed,
	}
	if short {
		cfg.Nodes, cfg.Racks, cfg.Shards, cfg.Warmup, cfg.Measure = 32, 4, 4, 200, 4_000
	}
	cfg.RateMRPS = load * float64(cfg.Nodes) * core.CapacityMRPS(node.Params, node.Workload)
	cfg.MaxSimTime = capSimTime(cfg.Warmup+cfg.Measure, cfg.RateMRPS)
	return &clusterScenario{cfg: cfg}
}

// machineScenario times machine.New and (*machine.Machine).Run directly.
type machineScenario struct{ cfg machine.Config }

func (s *machineScenario) rep() (rep, error) {
	var r rep
	var res machine.Result
	var err error
	r.host, err = metered(func() error {
		r.start = clock()
		t0 := time.Now()
		m, err := machine.New(s.cfg)
		if err != nil {
			return err
		}
		r.setup = time.Since(t0)
		res, err = m.Run()
		r.wall = time.Since(t0)
		return err
	})
	if err != nil {
		return r, err
	}
	r.simWall = r.wall - r.setup
	r.fromMachine(s.cfg, res)
	return r, nil
}

// fromMachine fills the modelled side of a repetition from a machine result.
func (r *rep) fromMachine(cfg machine.Config, res machine.Result) {
	r.completions = res.Completed
	r.setLatency(res.Latency)
	r.sloMRPS = res.ThroughputMRPS
	r.blocked, r.stalls = res.BlockedArrivals, res.ReplyStalls
	r.digest = machineDigest(res)
	r.problems = append(r.problems, machineChecks(cfg, res)...)
}

// clusterScenario times cluster.Run. Construction happens inside it, so the
// end of set-up is read from the first balancer decision, which a policy
// wrapper stamps; the wrapper delegates everything else unchanged.
type clusterScenario struct{ cfg cluster.Config }

// metered returns a copy of the config whose policies are wrapped in meters
// sharing one first-pick stamp; timed meters also time every pick.
func (s *clusterScenario) metered(timed bool) (cluster.Config, *pickMeter, *pickMeter) {
	c := s.cfg
	first := new(atomic.Int64)
	rack := newPickMeter(first, timed)
	c.Policy = rack.wrap(s.cfg.Policy.Clone())
	var global *pickMeter
	if s.cfg.GlobalPolicy != nil {
		global = newPickMeter(first, timed)
		c.GlobalPolicy = global.wrap(s.cfg.GlobalPolicy.Clone())
	}
	return c, rack, global
}

// runCluster runs cfg once under the meter and fills the timing side of r.
func runCluster(cfg cluster.Config, rack *pickMeter, r *rep) (cluster.Result, error) {
	var res cluster.Result
	var err error
	r.host, err = metered(func() error {
		t0 := clock()
		r.start = t0
		res, err = cluster.Run(cfg)
		t1 := clock()
		r.wall = time.Duration(t1 - t0)
		r.setup = time.Duration(rack.first.Load() - t0)
		return err
	})
	r.simWall = r.wall - r.setup
	return res, err
}

func (s *clusterScenario) rep() (rep, error) {
	var r rep
	c, rack, _ := s.metered(false)
	res, err := runCluster(c, rack, &r)
	if err != nil {
		return r, err
	}
	r.fromCluster(s.cfg, res)
	return r, nil
}

func (r *rep) fromCluster(cfg cluster.Config, res cluster.Result) {
	r.completions = res.Completed
	r.setLatency(res.Latency)
	r.sloMRPS = res.ThroughputMRPS
	r.imbalance = res.Imbalance
	r.digest = clusterDigest(res)
	r.problems = append(r.problems, clusterChecks(cfg, res)...)
}

// sweepScenario is the paper's Fig 7a sweep run through core's public sweep
// calls: HERD on 16x1, 4x4 and 1x16 over a rate grid past saturation, each
// curve's SLO knee refined by bisection, cells run on core's worker pool.
type sweepScenario struct {
	warmup, measure, points, kneeIters, workers int
	seed                                        uint64
}

// sweepModes are the curves, ordered as the paper's legend lists them.
var sweepModes = []machine.Mode{machine.ModePartitioned, machine.ModeGrouped, machine.ModeSingleQueue}

// sloSweep runs at the figure harness's default scale on one worker. With a
// worker per CPU of a shared two-CPU host every neighbour's load lands on
// the sweep: over ten runs its run_s spread reached 0.23 against 0.075 for
// the single-threaded node-steady. Sweep results do not depend on the
// worker count.
func sloSweep(seed uint64, short bool) scenario {
	o := core.DefaultOptions()
	s := &sweepScenario{warmup: o.Warmup, measure: o.Measure, points: o.Points, kneeIters: o.KneeIters, workers: 1, seed: seed}
	if short {
		s.warmup, s.measure, s.points, s.kneeIters = 400, 4_000, 6, 2
	}
	return s
}

func (s *sweepScenario) base(mode machine.Mode) machine.Config {
	p := machine.Defaults()
	p.Mode = mode
	return machine.Config{Params: p, Workload: workload.HERD(), Warmup: s.warmup, Measure: s.measure, Seed: s.seed}
}

func (s *sweepScenario) grid() []float64 {
	return core.RateGrid(core.CapacityMRPS(machine.Defaults(), workload.HERD()), 0.1, 1.02, s.points)
}

// gridPasses is how many times buildGrid builds the grid; it reports the
// median pass, since one pass of 30 small builds moves with GC timing.
const gridPasses = 5

// buildGrid constructs one machine per grid cell, as the sweep will, and
// returns the host time and heap bytes that took. The sweep builds inside
// its own calls, so this pass is how the benchmark times that construction
// from outside; it is not part of run_s. Each pass starts from a collected
// heap so earlier garbage does not decide when its GC cycles run.
func (s *sweepScenario) buildGrid() (time.Duration, uint64, error) {
	var passes []float64
	var bytes uint64
	for range gridPasses {
		runtime.GC()
		debug.FreeOSMemory()
		var total time.Duration
		bytes = 0
		for _, mode := range sweepModes {
			for _, rate := range s.grid() {
				cfg := s.base(mode)
				cfg.RateMRPS = rate
				d, b, err := allocated(func() error {
					_, err := machine.New(cfg)
					return err
				})
				if err != nil {
					return 0, 0, err
				}
				total += d
				bytes += b
			}
		}
		passes = append(passes, float64(total))
	}
	return time.Duration(median(passes)), bytes, nil
}

// sweepOut is one sweep's curves, in sweepModes order, and its cell count.
type sweepOut struct {
	curves []core.Curve
	cells  int
}

func (s *sweepScenario) sweep(trace func(cfg *machine.Config)) (sweepOut, error) {
	out := sweepOut{}
	grid := s.grid()
	for _, mode := range sweepModes {
		base := s.base(mode)
		if trace != nil {
			trace(&base)
		}
		label := curveLabel(mode)
		c, err := core.MachineSweep(base, grid, label, s.workers)
		if err != nil {
			return out, err
		}
		if c, err = core.RefineKnee(base, c, s.kneeIters, s.workers); err != nil {
			return out, err
		}
		out.cells += len(grid)
		if c.Knee != nil {
			out.cells += s.kneeIters
		}
		out.curves = append(out.curves, c)
	}
	return out, nil
}

func curveLabel(m machine.Mode) string {
	switch m {
	case machine.ModeSingleQueue:
		return "1x16"
	case machine.ModeGrouped:
		return "4x4"
	default:
		return "16x1"
	}
}

func (s *sweepScenario) rep() (rep, error) {
	var r rep
	setup, _, err := s.buildGrid()
	if err != nil {
		return r, err
	}
	var out sweepOut
	r.host, err = metered(func() error {
		t0 := time.Now()
		out, err = s.sweep(nil)
		r.wall = time.Since(t0)
		return err
	})
	if err != nil {
		return r, err
	}
	r.setup = setup
	// Builds run inside the sweep's cells on every worker, so the sweep's
	// simulate time cannot be split from its wall time from outside.
	r.simWall = r.wall
	r.completions = out.cells * (s.warmup + s.measure)
	return r, s.finish(&r, out)
}

// finish checks a sweep's claims and re-runs its reference 1x16 cell through
// machine.Run, which yields the full result the curve point summarises.
func (s *sweepScenario) finish(r *rep, out sweepOut) error {
	sq := out.curves[2]
	r.sloMRPS = sq.ThroughputUnderSLO()
	r.problems = append(r.problems, checkClaims(fig7aValues(out.curves), fig7aClaims)...)
	i := s.refCell()
	cfg := s.cellConfig(i)
	res, err := machine.Run(cfg)
	if err != nil {
		return fmt.Errorf("reference cell: %w", err)
	}
	r.setLatency(res.Latency)
	r.blocked, r.stalls = res.BlockedArrivals, res.ReplyStalls
	r.problems = append(r.problems, machineChecks(cfg, res)...)
	if p := sq.Points[i]; res.Latency.P50 != p.P50 || res.Latency.P99 != p.P99 || res.ThroughputMRPS != p.ThroughputMRPS {
		r.problems = append(r.problems, fmt.Sprintf("reference cell re-run gives p50 %v p99 %v thr %v, the sweep reported %v %v %v",
			res.Latency.P50, res.Latency.P99, res.ThroughputMRPS, p.P50, p.P99, p.ThroughputMRPS))
	}
	r.digest = sweepDigest(out.curves, res)
	return nil
}

// refCell is the grid index of the 1x16 cell the sweep's latency metrics
// come from: the highest grid rate at or below the fixed-load share of
// capacity, so every seed reports latency at the same offered rate.
func (s *sweepScenario) refCell() int {
	limit := load * core.CapacityMRPS(machine.Defaults(), workload.HERD())
	i := 0
	for j, rate := range s.grid() {
		if rate <= limit {
			i = j
		}
	}
	return i
}

// cellConfig is the configuration core.MachineSweep runs for the 1x16
// curve's grid point i, with the sweep's per-point seed offset.
func (s *sweepScenario) cellConfig(i int) machine.Config {
	cfg := s.base(machine.ModeSingleQueue)
	cfg.RateMRPS = s.grid()[i]
	cfg.Seed = s.seed + uint64(i)*1_000_003
	cfg.MaxSimTime = capSimTime(cfg.Warmup+cfg.Measure, cfg.RateMRPS)
	return cfg
}

// rngFor derives the benchmark's own random stream (the sim-layer driver's
// arrivals) from the workload seed, apart from every stream the simulator
// splits off the same seed.
func rngFor(seed uint64) *rng.Source { return rng.New(seed ^ 0x9e3779b97f4a7c15) }
