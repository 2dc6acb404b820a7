// Package sim provides the deterministic discrete-event simulation core
// on which every other package in this repository runs.
//
// A Loop owns a virtual clock, an event queue and a seed. Callbacks
// scheduled with At or After run in strictly nondecreasing virtual-time
// order; events scheduled for the same instant run in the order they
// were scheduled, and every random stream is derived from the seed, so
// a simulation is a pure function of its inputs and seed. The loop is
// single-goroutine by design: determinism is what makes the experiment
// harness reproducible and the test suite meaningful.
//
// The scheduler is built for a steady state of zero heap allocations:
// the event queue is an inline 4-ary min-heap of value-type records
// (no per-event box, no interface conversion), callbacks live in a
// slot table recycled through a free list, and Timer handles carry a
// generation counter instead of a pointer, so scheduling, firing, and
// cancelling events never allocates once the loop's arrays have grown
// to the simulation's working set.
//
// The queue holds only what can be next. An event's (at, seq) key is
// drawn when the simulation schedules it, but a Lane — a FIFO of
// occurrences sharing one callback — keeps only its head in the queue,
// and a timer re-armed with Reset keeps its queued entry where it is
// and is re-filed under its current key when that entry surfaces.
// Firing order is the (at, seq) total order either way. See DESIGN.md
// "Performance".
package sim

import (
	"fmt"
	"math"
	"time"

	"hvc/internal/invariant"
)

// A heapEntry is one entry of the event queue. Entries are ordered by
// (at, seq): seq is the global schedule order, which breaks timestamp
// ties deterministically. An entry whose seq is not its slot's is stale
// (the timer was re-armed since it was filed) and never sorts after the
// slot's key.
type heapEntry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// Slot lifecycle states. A slot is live while its callback is
// scheduled, cancelled between Timer.Stop and heap removal, and free
// while on the free list awaiting reuse.
const (
	slotFree uint8 = iota
	slotLive
	slotCancelled
)

// An eventSlot holds the callback, current key and liveness of one
// queued event. Slots are addressed by index from heap entries and
// Timer handles; the generation counter invalidates stale handles after
// reuse or re-arming. lane is set while the slot carries a Lane's head.
type eventSlot struct {
	fn    func()
	lane  *Lane
	at    time.Duration
	seq   uint64
	gen   uint32
	state uint8
}

// compactMin is the minimum number of cancelled heap entries before
// lazy compaction is considered. Below it, the dead entries are cheaper
// to discard at pop time than to filter out.
const compactMin = 64

// A Loop is a virtual-time event scheduler. The zero value is not ready
// for use; create one with NewLoop.
type Loop struct {
	now time.Duration
	// heap is the event queue, a 4-ary min-heap over (at, seq); slots
	// holds what each entry names.
	heap  []heapEntry
	slots []eventSlot
	// freeHead threads the free slots through the table itself: it is
	// the most recently freed slot's index + 1 (0: none), and a free
	// slot's seq holds the next link.
	freeHead int32
	seq      uint64
	seed     int64
	stopped  bool
	// pending counts scheduled, non-cancelled events: live queue
	// entries plus the occurrences lanes hold behind their heads. It
	// lets Run terminate without draining cancelled timers one by one.
	pending int
	// cancelled counts dead entries still occupying heap space; when
	// they outnumber the live ones the heap is compacted in one pass.
	cancelled int
	// events counts callbacks actually run (cancelled pops excluded):
	// the denominator of every events-per-simulated-second measurement.
	events uint64
	// lanes lists the loop's lanes that hold a ring, and rings the spare
	// ones: what lanes outgrew, and what a retired loop handed on.
	lanes []*Lane
	rings [][]laneKey
	// retired marks a loop whose arrays went to a later one (Retire).
	retired bool
}

// NewLoop returns a Loop whose clock reads zero and whose Seed is seed.
// Two loops created with the same seed and driven by the same schedule
// of callbacks produce identical executions.
func NewLoop(seed int64) *Loop {
	return &Loop{seed: seed}
}

// Seed reports the seed the loop was created with. The loop draws no
// random numbers itself: each component that needs a random stream
// (netem loss, fault processes, trace synthesis, the web corpus)
// derives a private source from the seed, so drawing from one never
// perturbs another and a seed fully determines a run.
func (l *Loop) Seed() int64 { return l.seed }

// Now reports the current virtual time, measured from the start of the
// simulation.
func (l *Loop) Now() time.Duration { return l.now }

// Pending reports the number of scheduled events that have neither run
// nor been cancelled.
func (l *Loop) Pending() int { return l.pending }

// Events reports the number of callbacks the loop has run. Cancelled
// timers do not count, so the value measures real scheduler work.
func (l *Loop) Events() uint64 { return l.events }

// Queued reports the event queue's physical occupancy: entries filed,
// including cancelled ones not yet removed. Occurrences a Lane holds
// behind its head are pending but not queued. Tests use it to pin the
// compaction bound and that a flow's packets stay out of the queue.
func (l *Loop) Queued() int { return len(l.heap) }

// A Timer is a handle to a scheduled callback: a slot index plus the
// generation the slot had when the event was scheduled, so a handle
// goes stale the moment its event fires or its slot is recycled. Timers
// are small values; copying one copies the handle, not the event. The
// zero value is an already-expired timer.
type Timer struct {
	loop *Loop
	slot int32 // slot index + 1; 0 marks the inert zero Timer
	gen  uint32
}

// Stop cancels the timer's callback if it has not yet run and reports
// whether it did so. Stopping an expired, cancelled, or zero Timer is a
// no-op that returns false.
func (t *Timer) Stop() bool {
	if t == nil || t.slot == 0 {
		return false
	}
	l := t.loop
	sl := &l.slots[t.slot-1]
	if sl.gen != t.gen || sl.state != slotLive {
		return false
	}
	sl.state = slotCancelled
	sl.fn = nil
	l.pending--
	l.cancelled++
	l.maybeCompact()
	return true
}

// Active reports whether the timer's callback is still scheduled.
func (t *Timer) Active() bool {
	if t == nil || t.slot == 0 {
		return false
	}
	sl := &t.loop.slots[t.slot-1]
	return sl.gen == t.gen && sl.state == slotLive
}

// At schedules fn to run when the virtual clock reads at. Scheduling in
// the past (before Now) panics: it would silently reorder causality,
// which is always a bug in the caller.
func (l *Loop) At(at time.Duration, fn func()) Timer {
	if invariant.Enabled() && l.retired {
		panic(errRetired)
	}
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if at < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, l.now))
	}
	var slot int32
	if l.freeHead != 0 {
		slot = l.freeHead - 1
		l.freeHead = int32(l.slots[slot].seq)
	} else {
		l.slots = append(l.slots, eventSlot{})
		slot = int32(len(l.slots) - 1)
	}
	seq := l.seq
	l.seq++
	l.pending++
	sl := &l.slots[slot]
	sl.fn, sl.at, sl.seq, sl.state = fn, at, seq, slotLive
	l.push(heapEntry{at: at, seq: seq, slot: slot})
	return Timer{loop: l, slot: slot + 1, gen: sl.gen}
}

// After schedules fn to run d from now. A nonpositive d runs fn at the
// current instant, after any callbacks already scheduled for it.
func (l *Loop) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now+d, fn)
}

// Reset re-arms t to run fn d from now. It is observably t.Stop()
// followed by *t = l.After(d, fn) — the same fresh sequence number, the
// same Pending, the old handle's copies stale — but when t's entry is
// still queued (live, or stopped and not yet discarded) and the new
// deadline is no earlier than the one recorded for it, the entry stays
// where it is and only the slot's key moves: the queue re-files the
// entry under that key when it surfaces. A timer that is pushed out
// again and again (an RTO re-armed per ack, a delayed-ack timer) costs
// one queue operation per deadline actually reached, not two per
// re-arm. A zero or fired handle, or an earlier deadline, takes the
// plain stop-and-schedule path; a foreign-loop handle, see ResetAt.
func (l *Loop) Reset(t *Timer, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	l.ResetAt(t, l.now+d, fn)
}

// ResetAt is Reset with an absolute deadline: observably t.Stop()
// followed by *t = l.At(at, fn). A handle another loop issued is never
// stopped — that would write into the other loop, possibly on another
// goroutine — only replaced; with invariant checking on it fails
// sim/foreign-timer.
func (l *Loop) ResetAt(t *Timer, at time.Duration, fn func()) {
	if invariant.Enabled() && l.retired {
		panic(errRetired)
	}
	switch {
	case t.loop == l:
		if t.slot != 0 && fn != nil && at >= l.now {
			// A matching generation means the slot has not been freed
			// since the handle was issued: its entry is still queued.
			if sl := &l.slots[t.slot-1]; sl.gen == t.gen && at >= sl.at {
				if sl.state == slotCancelled {
					sl.state = slotLive
					l.cancelled--
					l.pending++
				}
				sl.fn, sl.at, sl.seq = fn, at, l.seq
				l.seq++
				sl.gen++
				t.gen = sl.gen
				return
			}
		}
		t.Stop()
	case t.loop != nil && invariant.Enabled():
		panic(errForeignTimer)
	}
	*t = l.At(at, fn)
}

// errForeignTimer is a fixed violation, like the transport's owner
// checks: ResetAt runs once per re-armed timer.
var errForeignTimer = &invariant.Violation{Layer: "sim", Name: "foreign-timer",
	Detail: "a timer issued by another loop was reset on this one"}

// errRetired is the fixed violation of a call that would run or
// schedule an event on a retired loop.
var errRetired = &invariant.Violation{Layer: "sim", Name: "retired-loop",
	Detail: "a retired loop was asked to run or schedule an event"}

// Step runs the single earliest pending event and reports whether one
// existed. Cancelled events are discarded without running.
func (l *Loop) Step() bool {
	if invariant.Enabled() && l.retired {
		panic(errRetired)
	}
	return l.step(math.MaxInt64)
}

// step runs the earliest pending event if it is due at or before limit.
// Entries that surface dead are discarded and entries that surface
// stale — their timer re-armed since they were filed — are re-filed
// under their slot's key, neither counting as an event; a queued key
// never sorts after its slot's, so what fires is always the (at, seq)
// minimum over everything pending.
func (l *Loop) step(limit time.Duration) bool {
	for len(l.heap) > 0 {
		e := l.heap[0]
		if e.at > limit {
			return false
		}
		sl := &l.slots[e.slot]
		var fn func()
		requeue := false // the slot stays queued, under its own key
		switch {
		case sl.state == slotCancelled:
			l.cancelled--
		case sl.seq != e.seq:
			requeue = true
		default:
			fn = sl.fn
			// A lane's next occurrence takes over the slot and the entry.
			requeue = sl.lane != nil && sl.lane.pop(sl)
		}
		if requeue {
			// e is the minimum and the slot's key does not sort before
			// it: one sift of the root instead of a pop and a push.
			l.heap[0] = heapEntry{at: sl.at, seq: sl.seq, slot: e.slot}
			l.siftDown(0)
		} else {
			l.popRoot()
			l.freeSlot(e.slot)
		}
		if fn == nil {
			continue
		}
		l.pending--
		if invariant.Enabled() && e.at < l.now {
			invariant.Failf("sim", "monotonic-time",
				"event at %v popped with clock already at %v", e.at, l.now)
		}
		l.now = e.at
		l.events++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Stop is called.
func (l *Loop) Run() {
	l.stopped = false
	for !l.stopped && l.Step() {
	}
	if invariant.Enabled() {
		l.checkIntegrity()
	}
}

// RunUntil executes events with timestamps at or before deadline, then
// advances the clock to deadline. Events scheduled beyond the deadline
// remain queued.
func (l *Loop) RunUntil(deadline time.Duration) {
	if invariant.Enabled() && l.retired {
		panic(errRetired)
	}
	l.stopped = false
	for !l.stopped && l.step(deadline) {
	}
	if l.now < deadline {
		l.now = deadline
	}
	if invariant.Enabled() {
		l.checkIntegrity()
	}
}

// checkIntegrity audits the scheduler's structural invariants in one
// O(queue + slots + lane rings) pass: the 4-ary heap property holds
// over (at, seq), and every queue entry passes auditEntry and the
// counters auditCounts. It runs at the end of Run and RunUntil when
// checking is enabled — once per drive of the loop, so the audit never
// changes the complexity of a simulation.
func (l *Loop) checkIntegrity() {
	var a queueAudit
	for i, e := range l.heap {
		if i > 0 {
			parent := (i - 1) >> 2
			if entryLess(e, l.heap[parent]) {
				invariant.Failf("sim", "heap-order",
					"entry %d (at=%v seq=%d) sorts before its parent %d (at=%v seq=%d)",
					i, e.at, e.seq, parent, l.heap[parent].at, l.heap[parent].seq)
			}
		}
		l.auditEntry(&a, e)
	}
	l.auditCounts(&a)
}

// queueAudit tallies what one integrity pass finds in the queue.
type queueAudit struct {
	live, cancelled int
	laneHeld        int // occurrences lanes hold behind their queued heads
}

// auditEntry checks one heap entry against its slot: the slot exists
// and is live or cancelled, no live event lies in the past, the entry's
// key does not sort after the slot's (a stale entry must surface no
// later than its timer is due), and an entry carrying a lane's head
// agrees with the lane, whose ring is nondecreasing in (at, seq).
func (l *Loop) auditEntry(a *queueAudit, e heapEntry) {
	if e.slot < 0 || int(e.slot) >= len(l.slots) {
		invariant.Failf("sim", "heap-slot", "heap entry references slot %d of %d", e.slot, len(l.slots))
	}
	sl := &l.slots[e.slot]
	switch sl.state {
	case slotLive:
		a.live++
		// A Stop() mid-run legitimately leaves live events behind
		// the clock: RunUntil advances to its deadline regardless,
		// preserving the queue for a resume.
		if e.at < l.now && !l.stopped {
			invariant.Failf("sim", "monotonic-time",
				"live event queued at %v behind clock %v", e.at, l.now)
		}
		if sl.fn == nil {
			invariant.Failf("sim", "slot-state", "live slot %d has nil callback", e.slot)
		}
	case slotCancelled:
		a.cancelled++
	default:
		invariant.Failf("sim", "slot-state", "heap entry references free slot %d", e.slot)
	}
	if entryLess(heapEntry{at: sl.at, seq: sl.seq}, e) {
		invariant.Failf("sim", "stale-key",
			"heap entry (at=%v seq=%d) sorts after its slot's key (at=%v seq=%d)",
			e.at, e.seq, sl.at, sl.seq)
	}
	ln := sl.lane
	if ln == nil {
		return
	}
	if ln.n == 0 || ln.slot != e.slot || sl.state != slotLive {
		invariant.Failf("sim", "lane-order",
			"heap entry's slot %d (state %d) carries a lane holding %d occurrences at slot %d",
			e.slot, sl.state, ln.n, ln.slot)
	}
	a.laneHeld += ln.n - 1
	prev := heapEntry{at: sl.at, seq: sl.seq}
	for i := 0; i < ln.n-1; i++ {
		k := ln.buf[(ln.head+i)&(len(ln.buf)-1)]
		cur := heapEntry{at: k.at, seq: k.seq}
		if entryLess(cur, prev) {
			invariant.Failf("sim", "lane-order",
				"lane occurrence %d (at=%v seq=%d) sorts before its predecessor (at=%v seq=%d)",
				i+1, k.at, k.seq, prev.at, prev.seq)
		}
		prev = cur
	}
}

// auditCounts checks the loop's counters against what the pass found:
// pending is the live queue entries plus what lanes hold behind them,
// cancelled the dead entries still queued, and free-listed slots are
// really free.
func (l *Loop) auditCounts(a *queueAudit) {
	if a.live+a.laneHeld != l.pending {
		invariant.Failf("sim", "pending-count",
			"%d live queue entries + %d lane-held occurrences but pending=%d", a.live, a.laneHeld, l.pending)
	}
	if a.cancelled != l.cancelled {
		invariant.Failf("sim", "cancelled-count", "%d cancelled queue entries but cancelled=%d", a.cancelled, l.cancelled)
	}
	for next, n := l.freeHead, 0; next != 0; next, n = int32(l.slots[next-1].seq), n+1 {
		if n > len(l.slots) || l.slots[next-1].state != slotFree {
			invariant.Failf("sim", "free-list", "slot %d on the free list in state %d (link %d of %d slots)",
				next-1, l.slots[next-1].state, n, len(l.slots))
		}
	}
}

// Stop makes the innermost Run or RunUntil return after the current
// callback completes. The queue is preserved, so the loop can resume.
func (l *Loop) Stop() { l.stopped = true }

// A Spare holds the arrays a retired loop grew — its event queue, its
// slot table, and its lanes' rings — for a later loop to Adopt.
type Spare struct {
	heap  []heapEntry
	slots []eventSlot
	lanes []*Lane // empty; kept for its array
	rings [][]laneKey
}

// Retire ends the loop for good and hands on its arrays, emptied: the
// queue, the slot table (every callback dropped), and the ring of every
// lane on it, which is left empty. What is still scheduled never runs.
// The clock, Seed and Events keep their values; running or scheduling
// anything on the loop afterwards fails sim/retired-loop with checking
// on, and an old Timer handle no longer finds its slot. With fresh
// records on (invariant.Fresh), the arrays are dropped instead.
func (l *Loop) Retire() Spare {
	for _, ln := range l.lanes {
		if ln.buf != nil { // nil: its owner has put a new lane in its place
			l.rings = append(l.rings, ln.buf)
		}
		ln.buf, ln.head, ln.n = nil, 0, 0
	}
	for i := range l.slots {
		if ln := l.slots[i].lane; ln != nil {
			ln.n = 0 // a lane's head, the lane without a ring
		}
	}
	clear(l.slots)
	clear(l.lanes)
	s := Spare{heap: l.heap[:0], slots: l.slots[:0], lanes: l.lanes[:0], rings: l.rings}
	l.heap, l.slots, l.lanes, l.rings = nil, nil, nil, nil
	l.freeHead, l.retired = 0, true
	if invariant.Fresh() {
		return Spare{}
	}
	return s
}

// Adopt takes a retired loop's arrays (see Retire) in place of the
// loop's own, keeping whatever the loop has already scheduled, and
// empties s.
func (l *Loop) Adopt(s *Spare) {
	l.heap = append(s.heap, l.heap...)
	l.slots = append(s.slots, l.slots...)
	l.lanes = append(s.lanes, l.lanes...)
	l.rings = append(s.rings, l.rings...)
	*s = Spare{}
}

// ring lends a lane a ring of at least n keys, n a power of two: the
// smallest spare one that holds n, or a fresh one of exactly n.
func (l *Loop) ring(n int) []laneKey {
	best := -1
	for i, r := range l.rings {
		if len(r) >= n && (best < 0 || len(r) < len(l.rings[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]laneKey, n)
	}
	r := l.rings[best]
	last := len(l.rings) - 1
	l.rings[best] = l.rings[last]
	l.rings[last] = nil
	l.rings = l.rings[:last]
	return r
}

// freeSlot recycles a slot onto the free list, bumping its generation
// so outstanding Timer handles go stale.
func (l *Loop) freeSlot(slot int32) {
	sl := &l.slots[slot]
	sl.fn = nil
	sl.lane = nil
	sl.state = slotFree
	sl.gen++
	sl.seq = uint64(l.freeHead)
	l.freeHead = slot + 1
}

// maybeCompact removes cancelled entries in one pass once they occupy
// more than half of the queue, so a schedule-heavy workload that
// cancels most of its timers (pacing, retransmission, delayed acks)
// keeps the queue proportional to the live event count.
func (l *Loop) maybeCompact() {
	if l.cancelled < compactMin || l.cancelled <= len(l.heap)/2 {
		return
	}
	keep := l.heap[:0]
	for _, e := range l.heap {
		if l.slots[e.slot].state == slotLive {
			keep = append(keep, e)
		} else {
			l.freeSlot(e.slot)
		}
	}
	l.heap = keep
	l.cancelled = 0
	// Re-establish the heap property bottom-up. Pop order is unaffected:
	// (at, seq) is a total order, so any valid heap yields the same
	// deterministic sequence.
	for i := (len(keep) - 2) >> 2; i >= 0; i-- {
		l.siftDown(i)
	}
}

// entryLess orders heap entries by (at, seq).
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The event queue is a 4-ary min-heap laid out inline in a slice:
// children of node i sit at 4i+1..4i+4. Compared to the binary heap in
// container/heap this halves the tree depth (fewer cache lines touched
// per operation) and avoids the interface boxing of heap.Push/Pop.

func (l *Loop) push(e heapEntry) {
	l.heap = append(l.heap, e)
	// Sift up.
	h := l.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !entryLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// popRoot removes the minimum entry (the root) from the heap.
func (l *Loop) popRoot() {
	n := len(l.heap) - 1
	l.heap[0] = l.heap[n]
	l.heap = l.heap[:n]
	if n > 1 {
		l.siftDown(0)
	}
}

func (l *Loop) siftDown(i int) {
	h := l.heap
	n := len(h)
	e := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if entryLess(h[j], h[min]) {
				min = j
			}
		}
		if !entryLess(h[min], e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}

// A Periodic repeatedly runs a callback at a fixed interval until
// stopped. Create one with Every.
type Periodic struct {
	loop     *Loop
	interval time.Duration
	fn       func()
	tick     func() // the one re-armed closure; built once in Every
	timer    Timer
	stopped  bool
}

// Every schedules fn to run every interval, first at now+interval.
// The callback may call Stop on the returned Periodic to end the
// series; otherwise it continues until the simulation stops scheduling
// it (Stop) or the loop is abandoned. Re-arming reuses the same
// callback closure and recycles the expired event's slot, so a running
// Periodic does not allocate.
func Every(l *Loop, interval time.Duration, fn func()) *Periodic {
	if interval <= 0 {
		panic("sim: Every with nonpositive interval")
	}
	if fn == nil {
		panic("sim: Every with nil callback")
	}
	p := &Periodic{loop: l, interval: interval, fn: fn}
	p.tick = func() {
		if p.stopped {
			return
		}
		p.fn()
		if !p.stopped {
			p.arm()
		}
	}
	p.arm()
	return p
}

func (p *Periodic) arm() {
	p.timer = p.loop.After(p.interval, p.tick)
}

// Stop ends the series; the pending occurrence is cancelled. Stop is
// idempotent.
func (p *Periodic) Stop() {
	p.stopped = true
	p.timer.Stop()
}
