package sim

import (
	"math/bits"
	"time"

	"hvc/internal/invariant"
)

// The hierarchical timing wheel is the Loop's alternative event queue
// for the dense-timer regime (pacing, per-packet arrivals, delayed
// acks): push and pop are O(1) amortized instead of O(log n), at the
// cost of a coarse first-level granularity that the ready buffer
// re-sorts exactly.
//
// Layout: wheelLevels levels of wheelSlots buckets each. One tick is
// 2^tickBits nanoseconds (~65.5µs); level i's slots each span
// 2^(tickBits+wheelBits*i) ns, so four levels cover ~78 hours from the
// wheel's current position. Events beyond the horizon wait in an
// overflow list and are folded in when the wheels drain (rebase).
//
// Exactness: a level-0 bucket holds every event of one tick, which can
// contain many distinct (at, seq) pairs. When the wheel advances to a
// tick it moves the bucket into the sorted ready buffer, and pops drain
// ready first; pushes that land at or before the ready region's ticks
// binary-insert into ready. Since every ready entry's tick is strictly
// below cur and every wheel entry's tick is >= cur, ready entries
// always sort strictly before wheel entries, so the pop sequence is the
// exact (at, seq) total order the heap produces — FuzzWheelVsHeap holds
// the two implementations to identical observable behaviour.
const (
	tickBits    = 16
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// horizonBits is the span of ticks the four levels address from
	// cur; events whose tick differs from cur above this go to overflow.
	horizonBits = wheelBits * wheelLevels
)

// wheelTick maps a timestamp to its wheel tick.
func wheelTick(at time.Duration) uint64 { return uint64(at) >> tickBits }

// A wheelQueue is the hierarchical-wheel event queue. All entries below
// tick cur live (sorted) in ready; all entries at or above cur live in
// the level buckets or, beyond the horizon, in overflow.
type wheelQueue struct {
	cur     uint64 // wheel entries all have tick >= cur
	count   int    // entries in the level buckets (live + cancelled)
	buckets [wheelLevels][wheelSlots][]heapEntry
	occ     [wheelLevels][wheelSlots / 64]uint64
	// ready is the sorted (at, seq) run currently being drained;
	// entries before readyHead have been popped.
	ready     []heapEntry
	readyHead int
	overflow  []heapEntry
}

// size reports physical occupancy including cancelled entries, the
// wheel's analogue of len(Loop.heap).
func (w *wheelQueue) size() int {
	return w.count + len(w.ready) - w.readyHead + len(w.overflow)
}

// push files an entry by tick: already-reached ticks binary-insert into
// the ready run, beyond-horizon ticks append to overflow, everything
// else lands in its level bucket.
func (w *wheelQueue) push(e heapEntry) {
	t := wheelTick(e.at)
	if t < w.cur {
		w.readyInsert(e)
		return
	}
	if (t^w.cur)>>horizonBits != 0 {
		w.overflow = append(w.overflow, e)
		return
	}
	w.place(t, e)
	w.count++
}

// place appends an entry to the bucket its tick selects relative to
// cur: the lowest level whose span still contains both. Callers manage
// count (push increments it, cascade moves entries without changing it).
func (w *wheelQueue) place(t uint64, e heapEntry) {
	level := 0
	for (t^w.cur)>>(wheelBits*(level+1)) != 0 {
		level++
	}
	idx := (t >> (wheelBits * level)) & wheelMask
	w.buckets[level][idx] = append(w.buckets[level][idx], e)
	w.occ[level][idx>>6] |= 1 << (idx & 63)
}

// readyInsert places an entry into the sorted ready run. The insertion
// point is always at or after readyHead: a new entry's seq exceeds
// every popped entry's, and its at is no earlier than the clock.
func (w *wheelQueue) readyInsert(e heapEntry) {
	lo, hi := w.readyHead, len(w.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryLess(w.ready[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.ready = append(w.ready, heapEntry{})
	copy(w.ready[lo+1:], w.ready[lo:])
	w.ready[lo] = e
}

// front reports the minimum (at, seq) entry without removing it,
// advancing the wheel to the next occupied tick when the ready run is
// exhausted.
func (w *wheelQueue) front() (heapEntry, bool) {
	if w.readyHead == len(w.ready) {
		if !w.advance() {
			return heapEntry{}, false
		}
	}
	return w.ready[w.readyHead], true
}

// dropFront removes the entry front reported.
func (w *wheelQueue) dropFront() {
	w.readyHead++
	if w.readyHead == len(w.ready) {
		w.ready = w.ready[:0]
		w.readyHead = 0
	}
}

// advance moves cur forward to the next occupied tick, cascading
// higher-level buckets down as their blocks are reached, and drains
// that tick's bucket into ready. It reports false when no entries
// remain anywhere.
func (w *wheelQueue) advance() bool {
	w.ready = w.ready[:0]
	w.readyHead = 0
	if w.count == 0 {
		if len(w.overflow) == 0 {
			return false
		}
		w.rebase()
	}
	for {
		// First pull down any higher-level bucket covering cur's own
		// position (highest level first, since each cascade can fill
		// the next level's covering slot): a drain that lands cur
		// exactly on a block boundary leaves the new block's events in
		// the covering slot, and they may precede everything already
		// at level 0.
		for level := wheelLevels - 1; level >= 1; level-- {
			idx := uint(w.cur>>(wheelBits*level)) & wheelMask
			if w.occ[level][idx>>6]&(1<<(idx&63)) != 0 {
				w.cascade(level, idx)
			}
		}
		// The next event might be in the current level-0 block.
		if idx, ok := w.scan(0, uint(w.cur)&wheelMask); ok {
			w.drainTick(idx, w.cur&^wheelMask|uint64(idx))
			return true
		}
		// Look for the next occupied higher-level slot, nearest level
		// first, scanning each level from cur's own index: any bucketed
		// tick t >= cur shares the level's high bits with cur, so its
		// index can't be below cur's. Jumping cur to the found slot's
		// base keeps the invariant that every bucketed tick is >= cur,
		// so the slot's entries re-place into strictly lower levels.
		// (The slot covering cur itself can only be occupied when a
		// drain landed cur exactly on its base, so cur never moves
		// backwards.)
		cascaded := false
		for level := 1; level < wheelLevels; level++ {
			shift := wheelBits * level
			if idx, ok := w.scan(level, uint(w.cur>>shift)&wheelMask); ok {
				blockMask := uint64(1)<<shift - 1
				if base := w.cur&^(blockMask|wheelMask<<shift) | uint64(idx)<<shift; base > w.cur {
					w.cur = base
				}
				w.cascade(level, idx)
				cascaded = true
				break
			}
		}
		if !cascaded {
			// count > 0 guarantees an occupied slot at or after cur
			// somewhere in the hierarchy; reaching here means the
			// occupancy bitmaps and buckets disagree.
			panic("sim: timing wheel lost track of scheduled events")
		}
	}
}

// drainTick moves one level-0 bucket into ready in (at, seq) order and
// advances cur past the tick. Buckets are small (one tick's events), so
// an insertion sort beats sort.Slice and allocates nothing.
func (w *wheelQueue) drainTick(idx uint, t uint64) {
	b := w.buckets[0][idx]
	for _, e := range b {
		j := len(w.ready)
		w.ready = append(w.ready, e)
		for j > 0 && entryLess(e, w.ready[j-1]) {
			w.ready[j] = w.ready[j-1]
			j--
		}
		w.ready[j] = e
	}
	w.count -= len(b)
	w.buckets[0][idx] = b[:0]
	w.occ[0][idx>>6] &^= 1 << (idx & 63)
	w.cur = t + 1
}

// cascade redistributes one higher-level bucket into lower levels after
// cur has jumped to the bucket's base tick.
func (w *wheelQueue) cascade(level int, idx uint) {
	b := w.buckets[level][idx]
	for _, e := range b {
		w.place(wheelTick(e.at), e)
	}
	w.buckets[level][idx] = b[:0]
	w.occ[level][idx>>6] &^= 1 << (idx & 63)
}

// scan reports the first occupied slot at or after from on one level.
func (w *wheelQueue) scan(level int, from uint) (uint, bool) {
	words := &w.occ[level]
	wi := from >> 6
	word := words[wi] & (^uint64(0) << (from & 63))
	for {
		if word != 0 {
			return wi<<6 + uint(bits.TrailingZeros64(word)), true
		}
		wi++
		if wi >= uint(len(words)) {
			return 0, false
		}
		word = words[wi]
	}
}

// rebase restarts the wheels at the earliest overflow tick once they
// are empty, folding in every overflow entry the horizon now covers.
func (w *wheelQueue) rebase() {
	min := wheelTick(w.overflow[0].at)
	for _, e := range w.overflow[1:] {
		if t := wheelTick(e.at); t < min {
			min = t
		}
	}
	w.cur = min
	keep := w.overflow[:0]
	for _, e := range w.overflow {
		t := wheelTick(e.at)
		if (t^w.cur)>>horizonBits == 0 {
			w.place(t, e)
			w.count++
		} else {
			keep = append(keep, e)
		}
	}
	w.overflow = keep
}

// wheelCompact removes cancelled entries from every wheel region in one
// pass, the wheel's analogue of the heap's maybeCompact sweep. Removal
// cannot perturb pop order: surviving entries keep their buckets and
// the ready run's relative order.
func (l *Loop) wheelCompact() {
	w := l.wheel
	keep := w.ready[:w.readyHead]
	for _, e := range w.ready[w.readyHead:] {
		if l.slots[e.slot].state == slotLive {
			keep = append(keep, e)
		} else {
			l.freeSlot(e.slot)
		}
	}
	w.ready = keep
	for level := range w.buckets {
		for idx := range w.buckets[level] {
			b := w.buckets[level][idx]
			if len(b) == 0 {
				continue
			}
			kb := b[:0]
			for _, e := range b {
				if l.slots[e.slot].state == slotLive {
					kb = append(kb, e)
				} else {
					l.freeSlot(e.slot)
					w.count--
				}
			}
			w.buckets[level][idx] = kb
			if len(kb) == 0 {
				w.occ[level][uint(idx)>>6] &^= 1 << (uint(idx) & 63)
			}
		}
	}
	ko := w.overflow[:0]
	for _, e := range w.overflow {
		if l.slots[e.slot].state == slotLive {
			ko = append(ko, e)
		} else {
			l.freeSlot(e.slot)
		}
	}
	w.overflow = ko
	l.cancelled = 0
}

// checkWheelIntegrity is the wheel's end-of-run audit, mirroring the
// heap's checkIntegrity: region placement, occupancy bitmaps, slot
// states, counters, and the sorted ready run must all be mutually
// consistent.
func (l *Loop) checkWheelIntegrity() {
	w := l.wheel
	var a queueAudit
	for i := w.readyHead; i < len(w.ready); i++ {
		e := w.ready[i]
		l.auditEntry(&a, "ready", e)
		if i > w.readyHead && entryLess(e, w.ready[i-1]) {
			invariant.Failf("sim", "heap-order",
				"ready entry %d (at=%v seq=%d) sorts before its predecessor", i, e.at, e.seq)
		}
		if wheelTick(e.at) >= w.cur {
			invariant.Failf("sim", "heap-order",
				"ready entry at %v (tick %d) not below cur %d", e.at, wheelTick(e.at), w.cur)
		}
	}
	count := 0
	for level := range w.buckets {
		for idx := range w.buckets[level] {
			b := w.buckets[level][idx]
			occupied := w.occ[level][uint(idx)>>6]&(1<<(uint(idx)&63)) != 0
			if occupied != (len(b) > 0) {
				invariant.Failf("sim", "heap-order",
					"level %d slot %d: occupancy bit %v but %d entries", level, idx, occupied, len(b))
			}
			count += len(b)
			for _, e := range b {
				l.auditEntry(&a, "bucket", e)
				t := wheelTick(e.at)
				if t < w.cur || (t^w.cur)>>horizonBits != 0 {
					invariant.Failf("sim", "heap-order",
						"level %d slot %d holds tick %d outside [cur=%d, horizon)", level, idx, t, w.cur)
				}
				if int(t>>(wheelBits*level)&wheelMask) != idx {
					invariant.Failf("sim", "heap-order",
						"level %d slot %d holds tick %d whose index is %d", level, idx, t, t>>(wheelBits*level)&wheelMask)
				}
			}
		}
	}
	if count != w.count {
		invariant.Failf("sim", "pending-count", "%d bucketed entries but count=%d", count, w.count)
	}
	for _, e := range w.overflow {
		l.auditEntry(&a, "overflow", e)
		if t := wheelTick(e.at); (t^w.cur)>>horizonBits == 0 {
			invariant.Failf("sim", "heap-order",
				"overflow holds tick %d within the horizon of cur %d", t, w.cur)
		}
	}
	l.auditCounts(&a)
}
