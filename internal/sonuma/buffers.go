package sonuma

import (
	"fmt"
	"math/bits"
)

// SendBuffer is a node's send-side bookkeeping: N sets of S slots, one set
// per destination node. A slot is acquired when a core initiates a send and
// released when the destination's replenish arrives. §4.2 gives each slot a
// valid bit, a payload pointer and a size; the simulator moves no bytes, so
// only the valid bits are kept, S bits per destination.
type SendBuffer struct {
	cfg   DomainConfig
	words int      // bitmap words per destination: ⌈S/64⌉
	valid []uint64 // [dest·words + slot/64] bit slot%64 = slot in flight
	used  []int    // per-destination count of valid slots
}

// NewSendBuffer allocates the send-side slot bookkeeping for a domain.
func NewSendBuffer(cfg DomainConfig) (*SendBuffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	words := (cfg.Slots + 63) / 64
	return &SendBuffer{
		cfg:   cfg,
		words: words,
		valid: make([]uint64, cfg.Nodes*words),
		used:  make([]int, cfg.Nodes),
	}, nil
}

// Acquire claims the lowest free slot toward dest for a message of the given
// size; payload is the opaque local-buffer token the protocol would record.
// It reports false when all S slots toward dest are in flight — the
// end-to-end flow-control condition that back-pressures senders.
func (b *SendBuffer) Acquire(dest NodeID, payload uint64, size int) (int, bool) {
	if int(dest) < 0 || int(dest) >= b.cfg.Nodes {
		panic(fmt.Sprintf("sonuma: Acquire dest %d outside domain", dest))
	}
	if size > b.cfg.MaxMsgSize {
		panic(fmt.Sprintf("sonuma: Acquire size %d exceeds max inline %d; use rendezvous", size, b.cfg.MaxMsgSize))
	}
	if b.used[dest] == b.cfg.Slots {
		return 0, false
	}
	set := b.valid[int(dest)*b.words : (int(dest)+1)*b.words]
	for w, v := range set {
		if v != ^uint64(0) {
			i := bits.TrailingZeros64(^v)
			set[w] = v | 1<<i
			b.used[dest]++
			return w*64 + i, true
		}
	}
	panic("sonuma: send-slot count out of sync with valid bits")
}

// Release frees a slot toward dest — the effect of an arriving replenish,
// which in the protocol is a remote write resetting the slot's valid bit.
// Releasing a slot that is not in flight is a protocol violation and
// returns an error.
func (b *SendBuffer) Release(dest NodeID, slot int) error {
	if int(dest) < 0 || int(dest) >= b.cfg.Nodes {
		return fmt.Errorf("sonuma: Release dest %d outside domain", dest)
	}
	if slot < 0 || slot >= b.cfg.Slots {
		return fmt.Errorf("sonuma: Release slot %d outside [0,%d)", slot, b.cfg.Slots)
	}
	w := &b.valid[int(dest)*b.words+slot/64]
	bit := uint64(1) << (slot % 64)
	if *w&bit == 0 {
		return fmt.Errorf("sonuma: Release of already-free slot %d toward node %d", slot, dest)
	}
	*w &^= bit
	b.used[dest]--
	return nil
}

// InFlight reports the number of outstanding sends toward dest.
func (b *SendBuffer) InFlight(dest NodeID) int { return b.used[dest] }

// recvState tracks assembly of one in-flight inbound message. A slot has a
// recvState exactly while it is busy: from its first packet until Free.
type recvState struct {
	counter  int    // packets received so far (the slot's counter field)
	expected int    // total packets, from the packet headers
	src      NodeID // sending node
	size     int    // message payload size
}

// ReceiveBuffer is a node's receive-side state: N×S slots, each with the
// counter field the NI uses to detect that all packets of a send have
// arrived (§4.2 "Send operation"). Only busy slots hold state; an idle slot
// is an all-zero counter.
type ReceiveBuffer struct {
	cfg  DomainConfig
	busy SlotTable[recvState]
}

// NewReceiveBuffer allocates receive-side state for a domain.
func NewReceiveBuffer(cfg DomainConfig) (*ReceiveBuffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ReceiveBuffer{cfg: cfg}, nil
}

// inRange reports whether index names one of the domain's N×S slots.
func (b *ReceiveBuffer) inRange(index int) bool {
	return index >= 0 && index < b.cfg.TotalSlots()
}

// OnPacket records the arrival of one packet of a send targeting the given
// global receive-slot index. totalPackets is carried in every packet header
// (the paper's network-layer extension). It returns complete=true when the
// fetch-and-increment brings the counter up to the message's packet count.
//
// Protocol violations — a packet for a slot still occupied by a fully
// received, unprocessed message, or headers disagreeing about the message —
// are returned as errors so the caller can surface corrupted traffic
// instead of silently miscounting.
func (b *ReceiveBuffer) OnPacket(index int, src NodeID, size, totalPackets int) (complete bool, err error) {
	if !b.inRange(index) {
		return false, fmt.Errorf("sonuma: packet targets slot %d outside [0,%d)", index, b.cfg.TotalSlots())
	}
	if totalPackets <= 0 {
		return false, fmt.Errorf("sonuma: packet header claims %d total packets", totalPackets)
	}
	st, busy := b.busy.Put(index)
	switch {
	case !busy:
		// First packet of a new message claims the slot.
		*st = recvState{expected: totalPackets, src: src, size: size}
	case st.counter == st.expected:
		return false, fmt.Errorf("sonuma: packet for slot %d which holds an unconsumed message", index)
	case st.expected != totalPackets || st.src != src || st.size != size:
		return false, fmt.Errorf("sonuma: slot %d header mismatch: have (%d pkts, src %d, %dB), got (%d, %d, %dB)",
			index, st.expected, st.src, st.size, totalPackets, src, size)
	}
	st.counter++ // the NI pipeline's fetch-and-increment
	return st.counter == st.expected, nil
}

// Message returns the (src, size) recorded for a fully assembled message.
// It errors if the slot does not hold a complete message.
func (b *ReceiveBuffer) Message(index int) (NodeID, int, error) {
	if !b.inRange(index) {
		return 0, 0, fmt.Errorf("sonuma: Message slot %d out of range", index)
	}
	st := b.busy.Get(index)
	if st == nil || st.counter != st.expected {
		return 0, 0, fmt.Errorf("sonuma: slot %d does not hold a complete message", index)
	}
	return st.src, st.size, nil
}

// Free releases a receive slot after the serving core has processed the
// message and issued its replenish, resetting the counter for reuse.
func (b *ReceiveBuffer) Free(index int) error {
	if !b.inRange(index) {
		return fmt.Errorf("sonuma: Free slot %d out of range", index)
	}
	if !b.busy.Delete(index) {
		return fmt.Errorf("sonuma: Free of idle slot %d", index)
	}
	return nil
}

// Busy reports whether a slot currently holds an in-flight or unconsumed
// message.
func (b *ReceiveBuffer) Busy(index int) bool { return b.busy.Get(index) != nil }

// InUse counts slots currently busy, for occupancy accounting in tests.
func (b *ReceiveBuffer) InUse() int { return b.busy.Len() }
