// Package packet defines the network-layer unit exchanged across
// virtual channels, together with the small set of header fields the
// paper's steering policies read: packet kind, message boundaries, and
// packet/flow priorities (the "custom application header" of §3.3).
package packet

import (
	"fmt"
	"time"

	"hvc/internal/invariant"
)

// A FlowID names one end-to-end flow. IDs are allocated by the caller
// (typically the transport) and are unique within a simulation.
type FlowID uint32

// Kind classifies a packet for steering purposes. DChannel-style
// policies accelerate control traffic (ACKs, probes) ahead of data.
type Kind uint8

const (
	// Data carries application payload bytes.
	Data Kind = iota
	// Ack carries transport acknowledgment state and no payload.
	Ack
	// Control carries other transport control traffic (handshakes,
	// probes); like Ack it is small and latency-sensitive.
	Control
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Priority orders messages and flows; 0 is the most important (the
// paper's SVC layer 0), larger values matter less. PriorityBulk marks
// background traffic that should never occupy a constrained channel.
type Priority uint8

// PriorityBulk is the lowest priority; priority-aware steering keeps
// bulk traffic off resource-constrained low-latency channels entirely.
const PriorityBulk Priority = 255

// HeaderBytes is the fixed per-packet overhead charged on the wire,
// standing in for IP+transport headers (40 B) plus the steering shim's
// small custom header the paper describes.
const HeaderBytes = 44

// MaxPayload is the largest payload carried in one packet, chosen so
// that payload+header fits a 1500-byte MTU.
const MaxPayload = 1456

// A Packet is one steerable unit. Packets are passed by pointer through
// the stack and must not be mutated after being handed to a channel,
// except by the channel itself (which stamps transit metadata).
type Packet struct {
	ID   uint64 // globally unique per simulation, for tracing and dedup
	Flow FlowID
	Seq  uint64 // transport-assigned sequence within the flow
	Size int    // total wire size in bytes, including HeaderBytes
	Kind Kind

	// Message framing, supplied through the application-transport
	// interface (§3.3). A message is a byte sequence the receiver can
	// act on only once complete; MsgRemaining counts the bytes of the
	// message that follow this packet, so 0 marks the message tail.
	MsgID        uint64
	MsgRemaining int

	// Priority of the message this packet belongs to; FlowPriority of
	// the flow as a whole. Steering may consult either or both.
	Priority     Priority
	FlowPriority Priority

	// SentAt is the virtual time the packet entered the network; set
	// by the sender, used for RTT and one-way-latency accounting.
	SentAt time.Duration

	// Channel is stamped by the steering layer with the name of the
	// virtual channel that carried the packet.
	Channel string

	// Copy reports that this packet is a redundant duplicate created
	// by reliability-oriented steering; receivers deduplicate on ID.
	Copy bool
	// pooled marks a packet sitting in a Pool's free list (Put sets it,
	// Get clears it). It lives in Copy's padding, so it costs no space.
	pooled bool

	// Payload carries an opaque reference for the endpoint above the
	// network layer (a transport segment or an application message
	// fragment). It contributes Size bytes but is never serialized.
	Payload any
}

// MsgEnd reports whether this packet completes its message.
func (p *Packet) MsgEnd() bool { return p.MsgRemaining == 0 }

// String renders a compact one-line description for logs and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt(id=%d flow=%d seq=%d %s %dB prio=%d msg=%d rem=%d)",
		p.ID, p.Flow, p.Seq, p.Kind, p.Size, p.Priority, p.MsgID, p.MsgRemaining)
}

// An IDGen hands out unique packet IDs. The zero value is ready for
// use; it is not safe for concurrent use, matching the single-threaded
// simulation core.
type IDGen struct{ next uint64 }

// Next returns a fresh packet ID.
func (g *IDGen) Next() uint64 {
	g.next++
	return g.next
}

// A Pool is a LIFO free list of Packets for one simulation's channel
// group (it is not safe for concurrent use, matching the
// single-threaded core). Sharing one pool between both endpoints of a
// channel group closes the allocation cycle: packets freed where they
// arrive are reused where the next transmission originates, and what
// the network discards comes back too — the group's links return the
// packets they lose in flight, the transport the ones a channel refuses
// at entry — so a steady-state flow allocates no packets at all, lossy
// or not. The zero value is an empty pool ready for use.
//
// Get does not clear the returned packet — in particular Payload may
// still hold the previous use's payload box, which the transport
// deliberately reuses. Callers must overwrite every field they rely
// on, and must not Put a packet that any other component still
// references.
//
// A packet reused for a different kind cannot keep its box, so the pool
// also holds the detached boxes, one stack per kind (PutBox/GetBox).
// They live here rather than with either endpoint because packets
// cross the group: the side that detaches a box of one kind is never
// the side that next needs one, and only a cache both sides share lets
// the boxes circulate with the packets.
//
// The free lists outlive their simulation: Retire moves them into a
// spare pool that a later simulation's pool can Adopt. Since every
// borrower overwrites what it relies on, which simulation grew a packet
// is never observable.
//
// The pool keeps the books its world is held to: Live counts the
// packets handed out and not yet returned, which the packet ledger
// (invariant packet/ledger, transport.CheckLedger) balances against
// what the world's links and endpoints hold. Put marks a packet pooled
// and Get clears the mark, so that with invariant checking on, a second
// Put of the same packet fails packet/double-put.
type Pool struct {
	free  []*Packet
	boxes [Control + 1][]any
	live  int
}

// errDoublePut is a fixed violation: formatting one on the failure path
// would keep Put from inlining.
var errDoublePut = &invariant.Violation{Layer: "packet", Name: "double-put",
	Detail: "a packet was put back into its pool while already there"}

// Get returns a recycled packet, or a fresh one when the pool is empty.
func (pl *Pool) Get() *Packet {
	pl.live++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.pooled = false
		return p
	}
	return &Packet{}
}

// Retire moves the pool's free packets and parked boxes into a spare
// pool, which holds nothing else, after passing every payload — parked
// boxes, and those attached to a free packet (nil when none is) — to
// scrub, which must drop whatever the box holds of its simulation. Only
// the free lists move: packets out of the pool stay with it, so nothing
// the simulation can still reach is in the spare. Call it once the
// simulation is over; the pool starts again from empty lists.
func (pl *Pool) Retire(scrub func(box any)) (spare Pool) {
	spare.free, spare.boxes = pl.free, pl.boxes
	pl.free, pl.boxes = nil, [Control + 1][]any{}
	for _, p := range spare.free {
		scrub(p.Payload)
	}
	for _, b := range spare.boxes {
		for _, box := range b {
			scrub(box)
		}
	}
	return spare
}

// Adopt takes a spare pool's free packets and parked boxes (see Retire)
// onto the pool's own lists.
func (pl *Pool) Adopt(spare *Pool) {
	pl.free = append(spare.free, pl.free...)
	for k, b := range spare.boxes {
		pl.boxes[k] = append(b, pl.boxes[k]...)
	}
}

// Put returns a dead packet to the pool. Putting nil is a no-op.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	if p.pooled && invariant.Enabled() {
		panic(errDoublePut)
	}
	p.pooled = true
	pl.live--
	pl.free = append(pl.free, p)
}

// Live reports how many packets Get has handed out that Put has not
// taken back.
func (pl *Pool) Live() int { return pl.live }

// PutBox parks a payload box detached from a pooled packet, filed
// under the kind of packet it serves.
func (pl *Pool) PutBox(k Kind, box any) { pl.boxes[k] = append(pl.boxes[k], box) }

// GetBox returns a parked payload box for packets of kind k, or nil
// when there is none. Its contents are stale; callers overwrite.
func (pl *Pool) GetBox(k Kind) any {
	s := pl.boxes[k]
	n := len(s)
	if n == 0 {
		return nil
	}
	box := s[n-1]
	s[n-1] = nil
	pl.boxes[k] = s[:n-1]
	return box
}
