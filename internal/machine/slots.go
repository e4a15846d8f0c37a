package machine

import "rpcvalet/internal/fifo"

// slotSource is one source node's free per-pair receive slots, handed out
// in FIFO ring order (§4.2's per-destination head/tail pointers): first the
// slots never used yet, lowest first, then recycled slots in the order
// their replenishes returned them. That is exactly the order of a ring
// pre-filled with 0..S−1 that recycles to its tail, without building the
// ring for the many sources that never send: the ring holds recycled slots
// only, at most S of them, and is allocated on the first recycle.
type slotSource struct {
	next    int32   // lowest slot never handed out
	head, n int32   // recycled ring: oldest entry and entry count
	ring    []int32 // recycled slots; nil until the first recycle
}

// free reports how many slots the source can still hand out.
func (s *slotSource) free(slots int) int { return slots - int(s.next) + int(s.n) }

// pop hands out the next free slot, reporting false when all slots are in
// flight.
func (s *slotSource) pop(slots int) (int, bool) {
	if int(s.next) < slots {
		s.next++
		return int(s.next - 1), true
	}
	if s.n == 0 {
		return 0, false
	}
	v := s.ring[s.head]
	if s.head++; int(s.head) == len(s.ring) {
		s.head = 0
	}
	s.n--
	return int(v), true
}

// push recycles slot to the tail of the ring.
func (s *slotSource) push(slot, slots int) {
	if s.ring == nil {
		s.ring = make([]int32, slots)
	}
	tail := int(s.head + s.n)
	if tail >= len(s.ring) {
		tail -= len(s.ring)
	}
	s.ring[tail] = int32(slot)
	s.n++
}

// park appends req to the request queue *q, allocating the queue on first
// use: most sources never block on flow control, so most queues stay nil.
func park(q **fifo.Queue[*request], req *request) {
	if *q == nil {
		*q = new(fifo.Queue[*request])
	}
	(*q).Push(req)
}

// unpark pops the oldest request parked on q, if any.
func unpark(q *fifo.Queue[*request]) (*request, bool) {
	if q == nil {
		return nil, false
	}
	return q.Pop()
}
