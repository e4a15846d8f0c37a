package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"rpcvalet/internal/stats"
)

// rep is one untraced repetition of a workload: what it cost the host and
// what the modelled hardware did.
type rep struct {
	start       int64         // clock() when the run began
	setup       time.Duration // host time constructing the simulation
	wall        time.Duration // host wall time of the whole run, set-up included
	simWall     time.Duration // host time the simulation itself ran
	total       time.Duration // the repetition including the benchmark's own checks
	completions int           // simulated completions, warmup included
	host        hostCost

	p50, p99, p999 float64 // modelled end-to-end latency, simulated ns
	samples        int     // latency samples behind the percentiles
	sloMRPS        float64 // modelled throughput meeting the p99 SLO
	imbalance      float64 // max/mean completions per node (cluster runs)
	blocked        uint64  // NI arrivals parked by flow control
	stalls         uint64  // completions stalled on reply credits
	digest         string  // modelled-result fingerprint
	problems       []string
}

// repRecord is a repetition as written to the run record.
type repRecord struct {
	SetupS      float64  `json:"setup_s"`
	RunS        float64  `json:"run_s"`
	CPUS        float64  `json:"cpu_s"`
	SimS        float64  `json:"sim_s"`
	Completions int      `json:"completions"`
	AllocMB     float64  `json:"alloc_mb"`
	PeakHeapMB  float64  `json:"peak_heap_mb"`
	GCCycles    uint64   `json:"gc_cycles"`
	Samples     int      `json:"latency_samples"`
	Digest      string   `json:"digest"`
	Problems    []string `json:"problems,omitempty"`
}

func (r rep) record() repRecord {
	return repRecord{
		SetupS: r.setup.Seconds(), RunS: r.wall.Seconds(), CPUS: r.host.cpu.Seconds(), SimS: r.simWall.Seconds(),
		Completions: r.completions,
		AllocMB:     float64(r.host.allocBytes) / 1e6, PeakHeapMB: float64(r.host.peakHeapBytes) / 1e6,
		GCCycles: r.host.gcCycles, Samples: r.samples, Digest: r.digest, Problems: r.problems,
	}
}

// setLatency copies the modelled percentiles out of a latency summary.
func (r *rep) setLatency(s stats.Summary) {
	r.p50, r.p99, r.p999, r.samples = s.P50, s.P99, s.P999, s.Count
}

// hostCost is what one metered call cost the Go runtime and the process.
type hostCost struct {
	allocBytes    uint64        // heap bytes allocated
	peakHeapBytes uint64        // highest sampled live-plus-unswept heap
	gcCycles      uint64        // completed GC cycles
	gcCPUFrac     float64       // GC CPU over busy CPU, runtime/metrics estimates
	cpuUtil       float64       // process CPU seconds over wall seconds
	cpu           time.Duration // process CPU time, user plus system
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

type runtimeSample struct {
	alloc, cycles      uint64
	gcCPU, total, idle float64
	userSys            time.Duration
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeSample{
		alloc: s[0].Value.Uint64(), cycles: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), total: s[3].Value.Float64(), idle: s[4].Value.Float64(),
		userSys: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// metered runs fn from a collected, released heap — so a large previous run
// cannot tax this one's GC — and reports its host cost.
func metered(fn func() error) (hostCost, error) {
	runtime.GC()
	debug.FreeOSMemory()
	before := readRuntime()
	peak := startHeapSampler()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	peakBytes := peak.stop()
	after := readRuntime()
	c := hostCost{
		allocBytes:    after.alloc - before.alloc,
		peakHeapBytes: peakBytes,
		gcCycles:      after.cycles - before.cycles,
		cpuUtil:       (after.userSys - before.userSys).Seconds() / wall.Seconds(),
		cpu:           after.userSys - before.userSys,
	}
	if busy := (after.total - after.idle) - (before.total - before.idle); busy > 0 {
		c.gcCPUFrac = (after.gcCPU - before.gcCPU) / busy
	}
	return c, err
}

// allocated reports the heap bytes fn allocates and how long it takes.
func allocated(fn func() error) (time.Duration, uint64, error) {
	before := readRuntime()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	return d, readRuntime().alloc - before.alloc, err
}

// heapSampler polls the heap size on its own goroutine until stopped.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

const heapPollEvery = 2 * time.Millisecond

func heapBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := heapBytes(s)
		tick := time.NewTicker(heapPollEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, heapBytes(s))
			case <-h.done:
				h.peak <- max(peak, heapBytes(s))
				return
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the highest heap size it saw.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.peak
}
