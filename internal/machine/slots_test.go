package machine

import (
	"runtime"
	"testing"

	"rpcvalet/internal/fifo"
	"rpcvalet/internal/rng"
	"rpcvalet/internal/sim"
	"rpcvalet/internal/workload"
)

// TestSlotSourceMatchesPrefilledRing checks the lazy free-slot source
// against the model it replaces: a FIFO queue pre-filled with 0..S−1 that
// recycles replenished slots to its tail. Over random admit/replenish
// interleavings on several domain shapes, both must hand out the same slot
// sequence and agree on when a source is out of slots.
func TestSlotSourceMatchesPrefilledRing(t *testing.T) {
	for _, shape := range []struct{ nodes, slots int }{{1, 1}, {2, 3}, {4, 32}, {200, 32}, {3, 100}} {
		src := rng.New(uint64(shape.nodes*1000 + shape.slots))
		lazy := make([]slotSource, shape.nodes)
		ref := make([]fifo.Queue[int], shape.nodes)
		held := make([][]int, shape.nodes) // slots in flight, per source
		for n := range ref {
			for s := 0; s < shape.slots; s++ {
				ref[n].Push(s)
			}
		}
		for step := 0; step < 20000; step++ {
			n := src.IntN(shape.nodes)
			if got, want := lazy[n].free(shape.slots), ref[n].Len(); got != want {
				t.Fatalf("%v step %d: source %d free = %d, want %d", shape, step, n, got, want)
			}
			if src.IntN(2) == 0 {
				want, wantOK := ref[n].Pop()
				got, ok := lazy[n].pop(shape.slots)
				if ok != wantOK || got != want {
					t.Fatalf("%v step %d: source %d pop = (%d,%v), want (%d,%v)", shape, step, n, got, ok, want, wantOK)
				}
				if ok {
					held[n] = append(held[n], got)
				}
			} else if k := len(held[n]); k > 0 {
				i := src.IntN(k)
				s := held[n][i]
				held[n] = append(held[n][:i], held[n][i+1:]...)
				ref[n].Push(s)
				lazy[n].push(s, shape.slots)
			}
		}
	}
}

// buildBytes reports the heap bytes one NewShared allocates at Defaults()
// with the given messaging-domain size.
func buildBytes(t *testing.T, nodes int) float64 {
	t.Helper()
	cfg := Config{Params: Defaults(), Workload: workload.HERD()}
	cfg.Params.Domain.Nodes = nodes
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewShared(cfg, sim.New()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestBuildFootprintPerDomainNode pins that building a machine pays for the
// messaging domain's size only through small per-source records, not the
// N×S slot state §4.2 provisions: every domain node past the first 200 may
// add under 128 B. Building that slot state eagerly (receive-slot counters,
// send slots, pre-filled free-slot rings and a request-by-slot table) costs
// about 5 KB per node.
func TestBuildFootprintPerDomainNode(t *testing.T) {
	small, large := buildBytes(t, 200), buildBytes(t, 2000)
	if per := (large - small) / 1800; per >= 128 {
		t.Fatalf("build allocates %.0f B per added domain node (200 nodes: %.0f B, 2000: %.0f B), budget 128 B",
			per, small, large)
	}
}
