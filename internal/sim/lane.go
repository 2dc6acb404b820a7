package sim

import (
	"fmt"
	"time"
)

// A Lane is a FIFO of scheduled occurrences of one callback: a link's
// packet arrivals, a stream's frame ticks. Push schedules an occurrence
// exactly as Loop.At would — it draws the next sequence number and
// counts toward Pending — but requires occurrences to be pushed in
// nondecreasing time order, and so keeps only the lane's head in the
// event queue: firing it files the next. A thousand packets in flight
// on a link are one queue entry and a thousand 16-byte keys, not a
// thousand entries for every other event to sift past. Firing order is
// what one At per occurrence would give, because every occurrence
// carries the (at, seq) key it was pushed with.
//
// A Lane is a value meant to be embedded in its owner, which must
// outlive its occurrences and must not be copied once Push has been
// called (the queue points at the lane). Occurrences cannot be
// cancelled. Create one with NewLane.
type Lane struct {
	loop *Loop
	fn   func()
	// n counts the pending occurrences. The first is the lane's head: a
	// queued event whose slot holds its key. buf is a wrapping ring of
	// the n-1 behind it, oldest at head; its capacity is a power of two
	// that doubles when a push finds it full, and a lane that never has
	// two occurrences pending never builds it.
	n    int
	buf  []laneKey
	head int
	last time.Duration // the newest occurrence ever pushed
	slot int32         // queue slot carrying the head while n > 0
}

// laneKey is one occurrence's position in the loop's total order.
type laneKey struct {
	at  time.Duration
	seq uint64
}

// NewLane returns an empty lane that runs fn once per occurrence.
func NewLane(l *Loop, fn func()) Lane {
	if fn == nil {
		panic("sim: NewLane called with nil callback")
	}
	return Lane{loop: l, fn: fn}
}

// Len reports the occurrences pushed and not yet run.
func (ln *Lane) Len() int { return ln.n }

// Push schedules one more occurrence of the lane's callback at at. It
// panics if at precedes the lane's previous occurrence, or — like At —
// the clock.
func (ln *Lane) Push(at time.Duration) {
	if at < ln.last {
		panic(fmt.Sprintf("sim: lane occurrence at %v pushed after one at %v", at, ln.last))
	}
	l := ln.loop
	if ln.n == 0 {
		// The head is an ordinary queued event whose slot names the lane.
		t := l.At(at, ln.fn)
		ln.slot = t.slot - 1
		l.slots[ln.slot].lane = ln
		ln.n, ln.last = 1, at
		return
	}
	if at < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, l.now))
	}
	ln.last = at
	if ln.n > len(ln.buf) {
		ln.grow()
	}
	ln.buf[(ln.head+ln.n-1)&(len(ln.buf)-1)] = laneKey{at, l.seq}
	ln.n++
	l.seq++
	l.pending++
}

// pop retires the head as it fires and reports whether an occurrence
// follows it, moving the slot's key to that one.
func (ln *Lane) pop(sl *eventSlot) bool {
	ln.n--
	if ln.n == 0 {
		return false
	}
	k := ln.buf[ln.head]
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	sl.at, sl.seq = k.at, k.seq
	return true
}

// grow doubles a full ring, unwrapping it to the start of the new
// buffer.
func (ln *Lane) grow() {
	buf := make([]laneKey, max(2*len(ln.buf), 32))
	n := copy(buf, ln.buf[ln.head:])
	copy(buf[n:], ln.buf[:ln.head])
	ln.buf, ln.head = buf, 0
}
