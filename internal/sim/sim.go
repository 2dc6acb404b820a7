// Package sim provides the deterministic discrete-event simulation core
// on which every other package in this repository runs.
//
// A Loop owns a virtual clock and an event queue. Callbacks scheduled
// with At or After run in strictly nondecreasing virtual-time order;
// events scheduled for the same instant run in the order they were
// scheduled, so a simulation is a pure function of its inputs and seed.
// The loop is single-goroutine by design: determinism is what makes the
// experiment harness reproducible and the test suite meaningful.
//
// The scheduler is built for a steady state of zero heap allocations:
// the event queue is an inline 4-ary min-heap of value-type records
// (no per-event box, no interface conversion), callbacks live in a
// slot table recycled through a free list, and Timer handles carry a
// generation counter instead of a pointer, so scheduling, firing, and
// cancelling events never allocates once the loop's arrays have grown
// to the simulation's working set. See DESIGN.md "Performance".
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"hvc/internal/invariant"
)

// A heapEntry is one scheduled occurrence in the event heap. Entries
// are ordered by (at, seq): seq is the global schedule order, which
// breaks timestamp ties deterministically.
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

// An eventSlot holds the callback and liveness of one scheduled event.
// Slots are addressed by index from heap entries and Timer handles; the
// generation counter invalidates stale handles after reuse.
type eventSlot struct {
	fn    func()
	gen   uint32
	state uint8
}

// compactMin is the minimum number of cancelled heap entries before
// lazy compaction is considered. Below it, the dead entries are cheaper
// to discard at pop time than to filter out.
const compactMin = 64

// A Scheduler selects the Loop's event-queue implementation. Both
// produce the exact same firing order — (at, seq) is a total order and
// FuzzWheelVsHeap holds them to identical observable behaviour — so the
// choice is purely a performance trade: the heap does O(log n) ordered
// work per operation, the wheel does O(1) amortized bucketing and
// re-sorts only one tick's worth of events at a time.
type Scheduler uint8

const (
	// Heap is the inline 4-ary min-heap, the reference implementation.
	Heap Scheduler = iota
	// Wheel is the hierarchical timing wheel (see wheel.go).
	Wheel
)

// A Loop is a virtual-time event scheduler. The zero value is not ready
// for use; create one with NewLoop.
type Loop struct {
	now  time.Duration
	heap []heapEntry
	// wheel, when non-nil, replaces the heap as the event queue; every
	// queue operation branches on this one nil check so the heap path
	// stays exactly as fast as before the wheel existed.
	wheel   *wheelQueue
	slots   []eventSlot
	free    []int32
	seq     uint64
	seed    int64
	rng     *rand.Rand
	stopped bool
	// pending counts scheduled, non-cancelled events. It lets Run
	// terminate without draining cancelled timers one by one.
	pending int
	// cancelled counts dead entries still occupying heap space; when
	// they outnumber the live ones the heap is compacted in one pass.
	cancelled int
	// events counts callbacks actually run (cancelled pops excluded):
	// the denominator of every events-per-simulated-second measurement
	// and the witness for quiet-time fast-forward savings.
	events uint64
}

// NewLoop returns a Loop whose clock reads zero and whose random source
// is seeded with seed, using the build's default scheduler. Two loops
// created with the same seed and driven by the same schedule of
// callbacks produce identical executions.
func NewLoop(seed int64) *Loop {
	return NewLoopSched(seed, DefaultScheduler)
}

// NewLoopSched returns a Loop backed by an explicit scheduler choice.
// Results are independent of the choice; only speed differs.
func NewLoopSched(seed int64, s Scheduler) *Loop {
	l := &Loop{seed: seed}
	if s == Wheel {
		l.wheel = &wheelQueue{}
	}
	return l
}

// Seed reports the seed the loop was created with. Components that
// need their own random stream (so that drawing from one does not
// perturb another — netem links, fault processes) derive a private
// source from it instead of sharing Rand.
func (l *Loop) Seed() int64 { return l.seed }

// Now reports the current virtual time, measured from the start of the
// simulation.
func (l *Loop) Now() time.Duration { return l.now }

// Rand returns the loop's deterministic random source. All stochastic
// behaviour in a simulation (loss, trace noise, workload generation)
// must draw from it so that a seed fully determines a run. The source
// is seeded on first use — a 607-word generator state is not worth
// building for the many loops nothing ever draws from.
func (l *Loop) Rand() *rand.Rand {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	return l.rng
}

// Pending reports the number of scheduled events that have neither run
// nor been cancelled.
func (l *Loop) Pending() int { return l.pending }

// Events reports the number of callbacks the loop has run. Cancelled
// timers and fast-forwarded (skipped) events do not count, so the value
// measures real scheduler work.
func (l *Loop) Events() uint64 { return l.events }

// queueSize reports the event queue's physical occupancy, including
// cancelled entries not yet removed. Tests use it to pin the compaction
// bound.
func (l *Loop) queueSize() int {
	if l.wheel != nil {
		return l.wheel.size()
	}
	return len(l.heap)
}

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
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if at < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, l.now))
	}
	var slot int32
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.slots = append(l.slots, eventSlot{})
		slot = int32(len(l.slots) - 1)
	}
	sl := &l.slots[slot]
	sl.fn = fn
	sl.state = slotLive
	seq := l.seq
	l.seq++
	l.pending++
	e := heapEntry{at: at, seq: seq, slot: slot}
	if l.wheel != nil {
		l.wheel.push(e)
	} else {
		l.push(e)
	}
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

// Step runs the single earliest pending event and reports whether one
// existed. Cancelled events are discarded without running.
func (l *Loop) Step() bool {
	if l.wheel != nil {
		return l.stepWheel()
	}
	for len(l.heap) > 0 {
		e := l.heap[0]
		l.popRoot()
		sl := &l.slots[e.slot]
		if sl.state == slotCancelled {
			l.cancelled--
			l.freeSlot(e.slot)
			continue
		}
		fn := sl.fn
		l.freeSlot(e.slot)
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
	l.stopped = false
	for !l.stopped {
		at, ok := l.peek()
		if !ok || at > deadline {
			break
		}
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
	if invariant.Enabled() {
		l.checkIntegrity()
	}
}

// checkIntegrity audits the scheduler's structural invariants in one
// O(heap + slots) pass: the 4-ary heap property holds over (at, seq),
// no queued event lies in the past, every heap entry points at a
// live or cancelled slot, the pending and cancelled counters match the
// occupancy, and free-listed slots are really free. It runs at the end
// of Run and RunUntil when checking is enabled — once per drive of the
// loop, so the audit never changes the complexity of a simulation.
func (l *Loop) checkIntegrity() {
	if l.wheel != nil {
		l.checkWheelIntegrity()
		return
	}
	var live, cancelled int
	for i, e := range l.heap {
		if i > 0 {
			parent := (i - 1) >> 2
			if entryLess(e, l.heap[parent]) {
				invariant.Failf("sim", "heap-order",
					"entry %d (at=%v seq=%d) sorts before its parent %d (at=%v seq=%d)",
					i, e.at, e.seq, parent, l.heap[parent].at, l.heap[parent].seq)
			}
		}
		if e.slot < 0 || int(e.slot) >= len(l.slots) {
			invariant.Failf("sim", "heap-slot", "entry %d references slot %d of %d", i, e.slot, len(l.slots))
		}
		switch l.slots[e.slot].state {
		case slotLive:
			live++
			// A Stop() mid-run legitimately leaves live events behind
			// the clock: RunUntil advances to its deadline regardless,
			// preserving the queue for a resume.
			if e.at < l.now && !l.stopped {
				invariant.Failf("sim", "monotonic-time",
					"live event queued at %v behind clock %v", e.at, l.now)
			}
			if l.slots[e.slot].fn == nil {
				invariant.Failf("sim", "slot-state", "live slot %d has nil callback", e.slot)
			}
		case slotCancelled:
			cancelled++
		default:
			invariant.Failf("sim", "slot-state", "heap entry %d references free slot %d", i, e.slot)
		}
	}
	if live != l.pending {
		invariant.Failf("sim", "pending-count", "%d live heap entries but pending=%d", live, l.pending)
	}
	if cancelled != l.cancelled {
		invariant.Failf("sim", "cancelled-count", "%d cancelled heap entries but cancelled=%d", cancelled, l.cancelled)
	}
	for _, slot := range l.free {
		if l.slots[slot].state != slotFree {
			invariant.Failf("sim", "free-list", "slot %d on the free list in state %d", slot, l.slots[slot].state)
		}
	}
}

// Stop makes the innermost Run or RunUntil return after the current
// callback completes. The queue is preserved, so the loop can resume.
func (l *Loop) Stop() { l.stopped = true }

// peek reports the timestamp of the earliest live event, discarding
// any cancelled entries it finds at the root on the way.
func (l *Loop) peek() (time.Duration, bool) {
	if l.wheel != nil {
		return l.peekWheel()
	}
	for len(l.heap) > 0 {
		e := l.heap[0]
		if l.slots[e.slot].state == slotLive {
			return e.at, true
		}
		l.popRoot()
		l.cancelled--
		l.freeSlot(e.slot)
	}
	return 0, false
}

// freeSlot recycles a slot onto the free list, bumping its generation
// so outstanding Timer handles go stale.
func (l *Loop) freeSlot(slot int32) {
	sl := &l.slots[slot]
	sl.fn = nil
	sl.state = slotFree
	sl.gen++
	l.free = append(l.free, slot)
}

// maybeCompact removes cancelled entries in one pass once they occupy
// more than half of the queue, so a schedule-heavy workload that
// cancels most of its timers (pacing, retransmission, delayed acks)
// keeps the queue proportional to the live event count.
func (l *Loop) maybeCompact() {
	if l.wheel != nil {
		if l.cancelled >= compactMin && l.cancelled > l.wheel.size()/2 {
			l.wheelCompact()
		}
		return
	}
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
