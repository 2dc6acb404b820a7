package transport

import (
	"hvc/internal/invariant"
	"hvc/internal/packet"
	"hvc/internal/sim"
)

// An arena holds one endpoint's free transport records: chunks (each
// also its packet's in-flight tracking record), queued messages and
// reassembly state, and the arrays in-flight windows live in.
// Connections borrow from it and return what they hold as packets are
// acknowledged, as messages complete, as a flight drains, and at Close,
// so a world's next connection runs on the records and windows its
// earlier ones grew — and, once the world's run is over, so do the
// connections of the next world built in the process (Retire, Adopt).
// Every record names its owner — the borrowing flow, zero (no flow's
// ID) while free — so that a stale pointer across connections is
// caught, not obeyed.
type arena struct {
	freeChunks  []*chunk
	freeMsgs    []*message
	freeRcvMsgs []*rcvMsg
	// freeWindows holds window arrays, every slot nil, in no order.
	freeWindows [][]*chunk
}

// retire empties the arena into a spare one for a later world's
// endpoint to adopt. A free record holds nothing of its connection (the
// freeX methods clear it) but a reassembly record's expiry handle,
// which names its loop and is zeroed here.
func (a *arena) retire() arena {
	for _, rm := range a.freeRcvMsgs {
		rm.expiry = sim.Timer{}
	}
	spare := *a
	*a = arena{}
	return spare
}

// adopt takes a spare arena's free records and windows onto a's lists.
func (a *arena) adopt(spare *arena) {
	a.freeChunks = append(spare.freeChunks, a.freeChunks...)
	a.freeMsgs = append(spare.freeMsgs, a.freeMsgs...)
	a.freeRcvMsgs = append(spare.freeRcvMsgs, a.freeRcvMsgs...)
	a.freeWindows = append(spare.freeWindows, a.freeWindows...)
}

// pop takes the last record off a free list, or makes a fresh one.
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	*free = (*free)[:n-1]
	return x
}

// The owner checks panic with fixed violations: a call (invariant.Failf)
// would keep the accessors, four per packet, from inlining.
var (
	errNotOwner    = &invariant.Violation{Layer: "transport", Name: "record-owner", Detail: "a record is not held by the flow using it: a pointer kept past release, or a free list lending a held record"}
	errDoubleFree  = &invariant.Violation{Layer: "transport", Name: "double-free", Detail: "a record was released to its arena twice"}
	errDirtyWindow = &invariant.Violation{Layer: "transport", Name: "flight-array-clean", Detail: "a window array on the free list still holds a record"}
)

// own passes a record from one owner to the next; 0 is the arena, and
// from == to only asserts that the record stays where it is.
func own(owner *packet.FlowID, from, to packet.FlowID) {
	if invariant.Enabled() && *owner != from {
		panic(errNotOwner)
	}
	*owner = to
}

// disown is own(owner, flow, 0) for the release paths.
func disown(owner *packet.FlowID, flow packet.FlowID) {
	if invariant.Enabled() && *owner == 0 {
		panic(errDoubleFree)
	}
	own(owner, flow, 0)
}

// holds asserts that a record c reached through its own state is its.
func (c *Conn) holds(owner *packet.FlowID) { own(owner, c.flow, c.flow) }

// The accessors. newX lends flow a record: a chunk with no copies whose
// frag the caller overwrites, a zeroed message, a reassembly record with
// an empty range set. freeX takes it back once nothing of the connection
// can reach it (a chunk: acked, sent unreliably, or discarded at Close;
// never while the retx queue holds it), keeping its arrays and expiry
// callback for the next borrower.

func (a *arena) newChunk(flow packet.FlowID) *chunk {
	ch := pop(&a.freeChunks)
	own(&ch.owner, 0, flow)
	if ch.copies == nil {
		ch.copies = ch.inl[:0]
	}
	return ch
}

func (a *arena) freeChunk(flow packet.FlowID, ch *chunk) {
	disown(&ch.owner, flow)
	ch.frag = fragment{} // release the message data reference
	ch.sub, ch.copies = nil, ch.copies[:0]
	a.freeChunks = append(a.freeChunks, ch)
}

func (a *arena) newMsg(flow packet.FlowID) *message {
	m := pop(&a.freeMsgs)
	own(&m.owner, 0, flow)
	return m
}

func (a *arena) freeMsg(flow packet.FlowID, m *message) {
	disown(&m.owner, flow)
	*m = message{}
	a.freeMsgs = append(a.freeMsgs, m)
}

func (a *arena) newRcvMsg(flow packet.FlowID) *rcvMsg {
	rm := pop(&a.freeRcvMsgs)
	own(&rm.owner, 0, flow)
	return rm
}

func (a *arena) freeRcvMsg(flow packet.FlowID, rm *rcvMsg) {
	disown(&rm.owner, flow)
	*rm = rcvMsg{got: rangeSet{rs: rm.got.rs[:0]}, expireFn: rm.expireFn, expiry: rm.expiry}
	a.freeRcvMsgs = append(a.freeRcvMsgs, rm)
}

// newWindow lends an empty window array of at least n slots: the
// smallest free one that holds n, or a fresh one of exactly n when none
// does. Which array a flight lives in is never observable; best fit
// only keeps a short flight from taking the array a long one needs.
func (a *arena) newWindow(n int) []*chunk {
	best := -1
	for i, w := range a.freeWindows {
		if cap(w) >= n && (best < 0 || cap(w) < cap(a.freeWindows[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]*chunk, 0, n)
	}
	w := a.freeWindows[best]
	last := len(a.freeWindows) - 1
	a.freeWindows[best] = a.freeWindows[last]
	a.freeWindows[last] = nil
	a.freeWindows = a.freeWindows[:last]
	if invariant.Enabled() {
		for _, ch := range w[:cap(w)] {
			if ch != nil {
				panic(errDirtyWindow)
			}
		}
	}
	return w
}

// freeWindow takes back a window array whose slots hold no record.
func (a *arena) freeWindow(w []*chunk) {
	if cap(w) > 0 {
		a.freeWindows = append(a.freeWindows, w[:0])
	}
}
