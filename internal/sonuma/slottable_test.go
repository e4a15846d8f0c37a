package sonuma

import (
	"math"
	"slices"
	"testing"

	"rpcvalet/internal/rng"
)

// TestSlotTableMatchesMap drives the table and a Go map through the same
// random busy/idle churn over a keyspace much larger than the busy set —
// the receive-slot pattern — and checks every lookup, length and delete.
func TestSlotTableMatchesMap(t *testing.T) {
	for _, keys := range []int{8, 6400, 1 << 20} {
		var tab SlotTable[int]
		ref := map[int]int{}
		var busy []int // ref's keys, in a deterministic order
		src := rng.New(uint64(keys))
		for step := 0; step < 50000; step++ {
			k := src.IntN(keys)
			if len(busy) > 40 {
				// Revisit busy slots once occupancy passes 40, so it
				// hovers there as in-flight slots do and the table keeps
				// reusing its buckets.
				k = busy[src.IntN(len(busy))]
			}
			switch src.IntN(3) {
			case 0, 1:
				_, had := ref[k]
				if !had {
					busy = append(busy, k)
				}
				v, got := tab.Put(k)
				if got != had {
					t.Fatalf("keys=%d step %d: Put(%d) busy = %v, want %v", keys, step, k, got, had)
				}
				*v += step
				ref[k] += step
			default:
				_, had := ref[k]
				if got := tab.Delete(k); got != had {
					t.Fatalf("keys=%d step %d: Delete(%d) = %v, want %v", keys, step, k, got, had)
				}
				delete(ref, k)
				if i := slices.Index(busy, k); i >= 0 {
					busy = slices.Delete(busy, i, i+1)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("keys=%d step %d: Len = %d, want %d", keys, step, tab.Len(), len(ref))
			}
			for rk, rv := range ref {
				if v := tab.Get(rk); v == nil || *v != rv {
					t.Fatalf("keys=%d step %d: Get(%d) = %v, want %d", keys, step, rk, v, rv)
				}
			}
			if _, busy := ref[k]; !busy && tab.Get(k) != nil {
				t.Fatalf("keys=%d step %d: idle slot %d found", keys, step, k)
			}
		}
	}
}

// TestSlotTableSteadyStateAllocs: once the table has grown to its peak
// occupancy, churn at that occupancy allocates nothing.
func TestSlotTableSteadyStateAllocs(t *testing.T) {
	var tab SlotTable[*int]
	v := new(int)
	for k := 0; k < 32; k++ {
		p, _ := tab.Put(k)
		*p = v
	}
	next := 32
	allocs := testing.AllocsPerRun(1000, func() {
		tab.Delete(next - 32)
		p, _ := tab.Put(next)
		*p = v
		next++
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocates %.1f per op", allocs)
	}
}

// TestSendBufferLowestFree checks Acquire against a linear scan for the
// lowest free slot, over random acquire/release sequences on slot counts
// below, at and above one 64-bit bitmap word.
func TestSendBufferLowestFree(t *testing.T) {
	for _, slots := range []int{1, 3, 63, 64, 65, 130} {
		cfg := DomainConfig{Nodes: 3, Slots: slots, MaxMsgSize: 512, MTU: 64}
		b, err := NewSendBuffer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		held := make([][]bool, cfg.Nodes)
		for i := range held {
			held[i] = make([]bool, slots)
		}
		src := rng.New(uint64(slots))
		for step := 0; step < 20000; step++ {
			dest := NodeID(src.IntN(cfg.Nodes))
			set := held[dest]
			if src.IntN(5) < 3 {
				want := -1
				for i, h := range set {
					if !h {
						want = i
						break
					}
				}
				got, ok := b.Acquire(dest, 0, 64)
				if ok != (want >= 0) || (ok && got != want) {
					t.Fatalf("S=%d step %d: Acquire = (%d,%v), want lowest free %d", slots, step, got, ok, want)
				}
				if ok {
					set[got] = true
				}
				continue
			}
			s := src.IntN(slots)
			err := b.Release(dest, s)
			if (err == nil) != set[s] {
				t.Fatalf("S=%d step %d: Release(%d) err=%v with slot held=%v", slots, step, s, err, set[s])
			}
			set[s] = false
		}
	}
}

// TestDomainValidateSlotBound: per-pair slot numbers are stored as int32, so
// a domain with more slots per node than that is rejected.
func TestDomainValidateSlotBound(t *testing.T) {
	c := DomainConfig{Nodes: 1, Slots: math.MaxInt32, MaxMsgSize: 64, MTU: 64}
	if err := c.Validate(); err != nil {
		t.Fatalf("%d slots rejected: %v", c.Slots, err)
	}
	c.Slots++
	if err := c.Validate(); err == nil {
		t.Fatalf("%d slots accepted", c.Slots)
	}
}
