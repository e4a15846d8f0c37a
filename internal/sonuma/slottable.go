package sonuma

// SlotTable maps busy receive-slot indices to per-slot state. A node
// provisions N×S receive slots, but only the few holding in-flight messages
// need any state, so the table stores busy slots only: an open-addressed,
// linear-probing hash table with backward-shift deletion, sized by its peak
// occupancy rather than by N×S. Once it has grown to that peak, Put and
// Delete allocate nothing.
//
// The zero value is an empty table. Keys are receive-slot indices (≥ 0).
// A pointer returned by Get or Put is valid until the next Put or Delete.
type SlotTable[V any] struct {
	buckets []slotEntry[V]
	n       int
	shift   uint // 64 − log2(len(buckets)), for Fibonacci hashing
}

type slotEntry[V any] struct {
	key int // slot index + 1; 0 marks an empty bucket
	val V
}

// minSlotBuckets is the table's first size; it doubles whenever it would
// become more than half full.
const minSlotBuckets = 16

// home returns slot's first probe position.
func (t *SlotTable[V]) home(slot int) int {
	return int(uint64(slot) * 0x9e3779b97f4a7c15 >> t.shift)
}

// Len reports the number of busy slots.
func (t *SlotTable[V]) Len() int { return t.n }

// find returns slot's bucket index, or -1 when the slot is idle.
func (t *SlotTable[V]) find(slot int) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.buckets) - 1
	for i := t.home(slot); ; i = (i + 1) & mask {
		switch t.buckets[i].key {
		case slot + 1:
			return i
		case 0:
			return -1
		}
	}
}

// Get returns the state of a busy slot, or nil when the slot is idle.
func (t *SlotTable[V]) Get(slot int) *V {
	if i := t.find(slot); i >= 0 {
		return &t.buckets[i].val
	}
	return nil
}

// Put returns the state of slot and whether the slot was already busy; an
// idle slot is first marked busy with a zero value.
func (t *SlotTable[V]) Put(slot int) (v *V, busy bool) {
	if 2*(t.n+1) > len(t.buckets) {
		t.grow()
	}
	mask := len(t.buckets) - 1
	i := t.home(slot)
	for ; t.buckets[i].key != 0; i = (i + 1) & mask {
		if t.buckets[i].key == slot+1 {
			return &t.buckets[i].val, true
		}
	}
	t.buckets[i].key = slot + 1
	t.n++
	return &t.buckets[i].val, false
}

// Delete marks slot idle, reporting whether it was busy. The entries after
// it in its probe run shift back into the hole, so lookups never need
// tombstones.
func (t *SlotTable[V]) Delete(slot int) bool {
	i := t.find(slot)
	if i < 0 {
		return false
	}
	mask := len(t.buckets) - 1
	for j := (i + 1) & mask; t.buckets[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies on its
		// probe path from its home bucket k to j.
		k := t.home(t.buckets[j].key - 1)
		if (i-k)&mask < (j-k)&mask {
			t.buckets[i] = t.buckets[j]
			i = j
		}
	}
	t.buckets[i] = slotEntry[V]{} // drop any reference the state held
	t.n--
	return true
}

// grow doubles the bucket array (or creates the first one) and reinserts
// every busy slot.
func (t *SlotTable[V]) grow() {
	old := t.buckets
	size := 2 * len(old)
	if size < minSlotBuckets {
		size = minSlotBuckets
	}
	t.buckets = make([]slotEntry[V], size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	mask := size - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := t.home(e.key - 1)
		for t.buckets[i].key != 0 {
			i = (i + 1) & mask
		}
		t.buckets[i] = e
	}
}
