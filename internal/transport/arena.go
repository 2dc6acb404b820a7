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
	// holds lists the receive holds lent this world (a hold serves its
	// connection to the end of the world: it drains after a Close), and
	// freeHolds the ones a finished world handed on.
	holds, freeHolds []*rxHold
	// made counts the records and windows the arena has made or adopted.
	// Those not on a free list are lent, and a retired world must have
	// none (lent, Retire).
	made int
}

// lent reports how many records and windows are out on loan. With
// fresh records on it overcounts: a dropped record still counts as made.
func (a *arena) lent() int {
	return a.made - len(a.freeChunks) - len(a.freeMsgs) - len(a.freeRcvMsgs) - len(a.freeWindows)
}

// retire empties the arena into a spare one for a later world's
// endpoint to adopt; its holds must be drained. A free record holds
// nothing of its connection (the freeX methods clear it) but a
// reassembly record's expiry handle, which names its loop and is zeroed
// here, and a hold, which forgets its connection and lane here. With
// fresh records on, the spare is empty.
func (a *arena) retire() arena {
	for _, rm := range a.freeRcvMsgs {
		rm.expiry = sim.Timer{}
	}
	for _, h := range a.holds {
		h.conn, h.lane, h.q.q, h.q.head = nil, sim.Lane{}, h.q.q[:0], 0
	}
	a.freeHolds = append(a.freeHolds, a.holds...)
	clear(a.holds)
	a.holds = a.holds[:0]
	spare := *a
	*a = arena{}
	if invariant.Fresh() {
		return arena{}
	}
	return spare
}

// adopt takes a spare arena's free records, windows and holds onto a's
// lists. With checking on, it first fails transport/spare-clean if the
// spare still holds anything of its world: a record still owned, a
// message's or fragment's data, an expiry handle, a hold's connection.
func (a *arena) adopt(spare *arena) {
	if invariant.Enabled() {
		spare.checkClean()
	}
	a.made += spare.made
	a.freeChunks = append(spare.freeChunks, a.freeChunks...)
	a.freeMsgs = append(spare.freeMsgs, a.freeMsgs...)
	a.freeRcvMsgs = append(spare.freeRcvMsgs, a.freeRcvMsgs...)
	a.freeWindows = append(spare.freeWindows, a.freeWindows...)
	a.holds = append(spare.holds, a.holds...)
	a.freeHolds = append(spare.freeHolds, a.freeHolds...)
}

func (a *arena) checkClean() {
	dirty := len(a.holds) > 0 || a.lent() != 0
	for _, ch := range a.freeChunks {
		dirty = dirty || ch.owner != 0 || ch.frag.data != nil
	}
	for _, m := range a.freeMsgs {
		dirty = dirty || m.owner != 0 || m.data != nil
	}
	for _, rm := range a.freeRcvMsgs {
		dirty = dirty || rm.owner != 0 || rm.conn != nil || rm.data != nil || rm.expiry != sim.Timer{}
	}
	for _, h := range a.freeHolds {
		dirty = dirty || h.conn != nil || h.q.len() != 0
	}
	if dirty {
		panic(errDirtySpare)
	}
}

// scrubbed is packet.Pool.Adopt's check for the payload boxes a spare
// pool carries (scrub): a fragment box must not hold its message.
func scrubbed(box any) {
	if f, ok := box.(*fragment); ok && f.data != nil {
		panic(errDirtySpare)
	}
}

// pop takes the last record off a free list, or makes a fresh one,
// counting it.
func pop[T any](free *[]*T, made *int) *T {
	s := *free
	if len(s) == 0 {
		*made++
		return new(T)
	}
	*free = s[:len(s)-1]
	return s[len(s)-1]
}

// push puts a released record on a free list, or, with fresh records
// on, drops it.
func push[T any](free *[]*T, x *T) {
	if !invariant.Fresh() {
		*free = append(*free, x)
	}
}

// The owner checks panic with fixed violations: a call (invariant.Failf)
// would keep the accessors, four per packet, from inlining.
var (
	errNotOwner    = &invariant.Violation{Layer: "transport", Name: "record-owner", Detail: "a record is not held by the flow using it: a pointer kept past release, or a free list lending a held record"}
	errDoubleFree  = &invariant.Violation{Layer: "transport", Name: "double-free", Detail: "a record was released to its arena twice"}
	errDirtyWindow = &invariant.Violation{Layer: "transport", Name: "flight-array-clean", Detail: "a window array on the free list still holds a record"}
	errDirtySpare  = &invariant.Violation{Layer: "transport", Name: "spare-clean", Detail: "a finished world handed on a record, box or hold that still holds something of it"}
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
	ch := pop(&a.freeChunks, &a.made)
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
	push(&a.freeChunks, ch)
}

func (a *arena) newMsg(flow packet.FlowID) *message {
	m := pop(&a.freeMsgs, &a.made)
	own(&m.owner, 0, flow)
	return m
}

func (a *arena) freeMsg(flow packet.FlowID, m *message) {
	disown(&m.owner, flow)
	*m = message{}
	push(&a.freeMsgs, m)
}

func (a *arena) newRcvMsg(flow packet.FlowID) *rcvMsg {
	rm := pop(&a.freeRcvMsgs, &a.made)
	own(&rm.owner, 0, flow)
	return rm
}

func (a *arena) freeRcvMsg(flow packet.FlowID, rm *rcvMsg) {
	disown(&rm.owner, flow)
	*rm = rcvMsg{got: rangeSet{rs: rm.got.rs[:0]}, expireFn: rm.expireFn, expiry: rm.expiry}
	push(&a.freeRcvMsgs, rm)
}

// newHold lends c a receive hold for the rest of the world.
func (a *arena) newHold(c *Conn) *rxHold {
	var h *rxHold
	if n := len(a.freeHolds); n > 0 {
		h, a.freeHolds = a.freeHolds[n-1], a.freeHolds[:n-1]
	} else {
		h = new(rxHold)
		h.fn = h.release
	}
	h.conn, h.lane = c, sim.NewLane(c.loop, h.fn)
	a.holds = append(a.holds, h)
	return h
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
		a.made++
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
	if cap(w) == 0 {
		return
	}
	if !invariant.Fresh() {
		a.freeWindows = append(a.freeWindows, w[:0])
	}
}
