package sonuma

import (
	"fmt"
	"math"
)

// Delivery is how a message is carried to the receiver.
type Delivery int

const (
	// DeliveryInline writes the payload directly into a receive-buffer
	// slot as a series of MTU-sized packets (the common case).
	DeliveryInline Delivery = iota
	// DeliveryRendezvous sends only a descriptor; the receiver pulls the
	// payload with a one-sided read (§4.2's mechanism for messages larger
	// than max_msg_size).
	DeliveryRendezvous
)

func (d Delivery) String() string {
	if d == DeliveryRendezvous {
		return "rendezvous"
	}
	return "inline"
}

// RendezvousDescriptorBytes is the size of the descriptor exchanged for
// oversized messages: remote address (8), length (8), plus context/key
// metadata rounded to 32 bytes.
const RendezvousDescriptorBytes = 32

// DomainConfig describes a messaging domain (§4.2): N nodes that may
// exchange messages, S send/receive slots per node pair, a maximum inline
// message size, and the link MTU (one cache block for integrated NIs).
type DomainConfig struct {
	Nodes      int // N
	Slots      int // S: concurrent outstanding messages per node pair
	MaxMsgSize int // largest inline message payload, bytes
	MTU        int // link-layer packet payload, bytes (64 for soNUMA)
}

// Validate reports whether the configuration is usable.
func (c DomainConfig) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("sonuma: domain needs at least 1 node, got %d", c.Nodes)
	case c.Slots <= 0:
		return fmt.Errorf("sonuma: domain needs at least 1 slot per node, got %d", c.Slots)
	case c.Slots > math.MaxInt32:
		return fmt.Errorf("sonuma: %d slots per node exceeds %d", c.Slots, math.MaxInt32)
	case c.MaxMsgSize <= 0:
		return fmt.Errorf("sonuma: max message size %d must be positive", c.MaxMsgSize)
	case c.MTU <= 0:
		return fmt.Errorf("sonuma: MTU %d must be positive", c.MTU)
	default:
		return nil
	}
}

// Packets returns the number of MTU-sized packets needed to carry an inline
// payload of size bytes. Every message occupies at least one packet.
func (c DomainConfig) Packets(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + c.MTU - 1) / c.MTU
}

// Classify chooses the delivery mode for a message of the given size.
func (c DomainConfig) Classify(size int) Delivery {
	if size > c.MaxMsgSize {
		return DeliveryRendezvous
	}
	return DeliveryInline
}

// RendezvousReadPackets returns how many packets the receiver-issued
// one-sided read pulls for an oversized message.
func (c DomainConfig) RendezvousReadPackets(size int) int { return c.Packets(size) }

// TotalSlots returns the number of receive (equivalently send) slots a node
// provisions: N×S.
func (c DomainConfig) TotalSlots() int { return c.Nodes * c.Slots }

// RecvSlotIndex maps (source node, per-pair slot) to the node-global receive
// slot index. The sender computes this address itself — that is the trick
// that lets multi-packet messages land without NI reassembly state.
func (c DomainConfig) RecvSlotIndex(src NodeID, slot int) int {
	if int(src) < 0 || int(src) >= c.Nodes {
		panic(fmt.Sprintf("sonuma: source node %d outside domain of %d nodes", src, c.Nodes))
	}
	if slot < 0 || slot >= c.Slots {
		panic(fmt.Sprintf("sonuma: slot %d outside per-pair range [0,%d)", slot, c.Slots))
	}
	return int(src)*c.Slots + slot
}

// SlotOwner inverts RecvSlotIndex: it returns the source node and per-pair
// slot for a node-global receive slot index.
func (c DomainConfig) SlotOwner(index int) (NodeID, int) {
	if index < 0 || index >= c.TotalSlots() {
		panic(fmt.Sprintf("sonuma: receive slot %d outside [0,%d)", index, c.TotalSlots()))
	}
	return NodeID(index / c.Slots), index % c.Slots
}

// FootprintBytes returns the per-node memory the paper provisions for the
// messaging mechanism, using its formula (§4.2):
//
//	32·N·S + (max_msg_size + 64)·N·S
//
// 32 bytes of send-slot bookkeeping per slot, plus a receive slot sized for
// the payload and a full cache block for the packet counter (overprovisioned
// to keep payloads aligned). This is the modelled hardware's footprint, not
// what the simulator allocates: SendBuffer keeps S valid bits per
// destination, and ReceiveBuffer holds state for busy slots only.
func (c DomainConfig) FootprintBytes() int {
	ns := c.Nodes * c.Slots
	return 32*ns + (c.MaxMsgSize+64)*ns
}
