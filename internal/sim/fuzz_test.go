package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hvc/internal/invariant"
)

// A target is one scheduler driven by a fuzz program: the event loop or
// the reference it is held to. Timers are named
// by handle index (after returns the new handle's; reset re-arms a
// handle in place), lanes by number, and every callback records the id
// it was scheduled with. Handle 0 is the zero Timer, which programs
// also re-arm, and handle 1 (foreignHandle) a timer pending on some
// other loop, which they stop and probe; re-arming it is refused and
// changes nothing (invariant sim/foreign-timer).
type target interface {
	after(d time.Duration, id int) int
	stop(h int) bool
	active(h int) bool
	reset(h int, d time.Duration, id int)
	lanePush(k int, at time.Duration, id int)
	step() bool
	runUntil(deadline time.Duration)
	drain()
	now() time.Duration
	pending() int
	foreignPending() int
	fired() []int
}

const fuzzLanes = 2

// foreignHandle names the timer on the foreign loop in every target.
const foreignHandle = 1

// A loopTarget drives a real Loop, either with the primitives under
// test (Reset / ResetAt, Lane.Push) or — plain — with the program they
// must be indistinguishable from: Stop followed by After, and one At per
// lane occurrence.
type loopTarget struct {
	l       *Loop
	foreign *Loop
	plain   bool
	timers  []Timer
	lanes   [fuzzLanes]Lane
	laneIDs [fuzzLanes][]int // ids of each lane's pending occurrences, oldest first
	got     []int
}

func newLoopTarget(plain bool) *loopTarget {
	lt := &loopTarget{l: NewLoop(1), foreign: NewLoop(2), plain: plain}
	lt.timers = []Timer{{}, lt.foreign.After(time.Hour, func() {})}
	for k := range lt.lanes {
		k := k
		lt.lanes[k] = NewLane(lt.l, func() {
			lt.got = append(lt.got, lt.laneIDs[k][0])
			lt.laneIDs[k] = lt.laneIDs[k][1:]
		})
	}
	return lt
}

func (lt *loopTarget) record(id int) func() { return func() { lt.got = append(lt.got, id) } }

func (lt *loopTarget) after(d time.Duration, id int) int {
	lt.timers = append(lt.timers, lt.l.After(d, lt.record(id)))
	return len(lt.timers) - 1
}

func (lt *loopTarget) stop(h int) bool   { return lt.timers[h].Stop() }
func (lt *loopTarget) active(h int) bool { return lt.timers[h].Active() }

func (lt *loopTarget) reset(h int, d time.Duration, id int) {
	if h == foreignHandle {
		lt.refuse(h, d, id)
		return
	}
	if lt.plain {
		lt.timers[h].Stop()
		lt.timers[h] = lt.l.After(d, lt.record(id))
		return
	}
	// Alternate the two spellings; they are one primitive.
	if id%2 == 0 {
		lt.l.Reset(&lt.timers[h], d, lt.record(id))
	} else {
		lt.l.ResetAt(&lt.timers[h], lt.l.Now()+d, lt.record(id))
	}
}

// refuse re-arms the foreign handle, which must fail sim/foreign-timer
// before it touches either loop. With checking off there is nothing to
// observe here; TestResetRefusesForeignTimer covers that mode.
func (lt *loopTarget) refuse(h int, d time.Duration, id int) {
	if !invariant.Enabled() {
		return
	}
	defer func() {
		v, _ := recover().(*invariant.Violation)
		if v == nil || v.Name != "foreign-timer" {
			panic(fmt.Sprintf("re-arming a foreign timer: got %v, want sim/foreign-timer", v))
		}
	}()
	lt.l.Reset(&lt.timers[h], d, lt.record(id))
}

func (lt *loopTarget) lanePush(k int, at time.Duration, id int) {
	if lt.plain {
		lt.l.At(at, lt.record(id))
		return
	}
	lt.laneIDs[k] = append(lt.laneIDs[k], id)
	lt.lanes[k].Push(at)
}

func (lt *loopTarget) step() bool                      { return lt.l.Step() }
func (lt *loopTarget) runUntil(deadline time.Duration) { lt.l.RunUntil(deadline) }
func (lt *loopTarget) drain()                          { lt.l.Run() }
func (lt *loopTarget) now() time.Duration              { return lt.l.Now() }
func (lt *loopTarget) pending() int                    { return lt.l.Pending() }
func (lt *loopTarget) foreignPending() int             { return lt.foreign.Pending() }
func (lt *loopTarget) fired() []int                    { return lt.got }

// refEvent is one scheduled occurrence in the reference scheduler: a
// flat slice scanned for the (at, seq) minimum on every step. It is
// obviously correct and hopelessly slow — exactly what an oracle for
// the inline heap should be.
type refEvent struct {
	at        time.Duration
	seq       uint64
	id        int
	cancelled bool
	fired     bool
}

// refSched is the oracle target. A handle maps to the event it
// currently names; re-arming is cancel-and-schedule (refused for the
// foreign handle), and a lane occurrence is an event like any other.
type refSched struct {
	events  []refEvent
	handles []int // event index, or one of the two markers below
	clock   time.Duration
	seq     uint64
	got     []int
	foreign int // the foreign loop's pending count
}

const (
	refZero    = -1 // the zero Timer
	refForeign = -2 // the timer on the foreign loop
)

func newRefSched() *refSched {
	return &refSched{handles: []int{refZero, refForeign}, foreign: 1}
}

func (r *refSched) schedule(at time.Duration, id int) int {
	r.events = append(r.events, refEvent{at: at, seq: r.seq, id: id})
	r.seq++
	return len(r.events) - 1
}

func (r *refSched) after(d time.Duration, id int) int {
	if d < 0 {
		d = 0
	}
	r.handles = append(r.handles, r.schedule(r.clock+d, id))
	return len(r.handles) - 1
}

// stop mirrors Timer.Stop: it reports whether the event was still
// pending.
func (r *refSched) stop(h int) bool {
	if !r.active(h) {
		return false
	}
	if r.handles[h] == refForeign {
		r.foreign--
	} else {
		r.events[r.handles[h]].cancelled = true
	}
	return true
}

func (r *refSched) active(h int) bool {
	switch idx := r.handles[h]; idx {
	case refZero:
		return false
	case refForeign:
		return r.foreign > 0
	default:
		return !r.events[idx].fired && !r.events[idx].cancelled
	}
}

func (r *refSched) reset(h int, d time.Duration, id int) {
	if r.handles[h] == refForeign {
		return
	}
	r.stop(h)
	r.handles[h] = r.schedule(r.clock+d, id)
}

func (r *refSched) lanePush(_ int, at time.Duration, id int) { r.schedule(at, id) }

// stepUntil runs the earliest pending event if it is due by limit.
func (r *refSched) stepUntil(limit time.Duration) bool {
	best := -1
	for i := range r.events {
		e := &r.events[i]
		if e.fired || e.cancelled {
			continue
		}
		if best == -1 || e.at < r.events[best].at ||
			(e.at == r.events[best].at && e.seq < r.events[best].seq) {
			best = i
		}
	}
	if best == -1 || r.events[best].at > limit {
		return false
	}
	r.events[best].fired = true
	r.clock = r.events[best].at
	r.got = append(r.got, r.events[best].id)
	return true
}

const refForever = time.Duration(1<<63 - 1)

func (r *refSched) step() bool { return r.stepUntil(refForever) }

func (r *refSched) runUntil(deadline time.Duration) {
	for r.stepUntil(deadline) {
	}
	if r.clock < deadline {
		r.clock = deadline
	}
}

func (r *refSched) drain() {
	for r.step() {
	}
}

func (r *refSched) now() time.Duration { return r.clock }

func (r *refSched) pending() int {
	n := 0
	for i := range r.events {
		if !r.events[i].fired && !r.events[i].cancelled {
			n++
		}
	}
	return n
}

func (r *refSched) foreignPending() int { return r.foreign }
func (r *refSched) fired() []int        { return r.got }

// fuzzDelay draws a delay at one of three magnitudes: tens of
// microseconds to a few milliseconds, where keys tie and interleave
// below a millisecond; seconds to minutes, where timers stand long
// enough to be cancelled and re-armed in bulk and drive compaction; and
// hours to days, far-future keys that sit under everything else.
func fuzzDelay(class, mag byte) time.Duration {
	switch class % 3 {
	case 0:
		return time.Duration(mag) * 37 * time.Microsecond
	case 1:
		return time.Duration(mag) * 977 * time.Millisecond
	default:
		return time.Duration(mag) * 13 * time.Hour
	}
}

// runProgram interprets data as a program of schedule / cancel / re-arm
// / lane-push / step / run-until operations, two bytes each, applies it
// to both targets and demands identical observable behaviour after
// every operation — Stop and Active results, Step results, clocks,
// pending counts, the foreign loop's pending count, events run — and an
// identical complete firing order once both are drained.
func runProgram(t *testing.T, data []byte, a, b target) {
	t.Helper()
	handles := 2 // the zero and the foreign handle
	nextID := 0
	var laneLast [fuzzLanes]time.Duration
	for i := 0; i+1 < len(data); i += 2 {
		op, hi, arg := data[i]%9, data[i]/9, data[i+1]
		id := nextID
		switch op {
		case 0, 3: // schedule tens of µs to a few ms out
			nextID++
			a.after(fuzzDelay(0, arg), id)
			b.after(fuzzDelay(0, arg), id)
			handles++
		case 4: // schedule seconds to minutes out
			nextID++
			a.after(fuzzDelay(1, arg), id)
			b.after(fuzzDelay(1, arg), id)
			handles++
		case 5: // schedule hours to days out
			nextID++
			a.after(fuzzDelay(2, arg), id)
			b.after(fuzzDelay(2, arg), id)
			handles++
		case 1: // cancel an arbitrary handle, probe another
			h := int(arg) % handles
			if as, bs := a.stop(h), b.stop(h); as != bs {
				t.Fatalf("op %d: Stop(handle %d): %v vs %v", i/2, h, as, bs)
			}
			h = int(hi) % handles
			if aa, ba := a.active(h), b.active(h); aa != ba {
				t.Fatalf("op %d: Active(handle %d): %v vs %v", i/2, h, aa, ba)
			}
		case 2: // run one event
			if as, bs := a.step(), b.step(); as != bs {
				t.Fatalf("op %d: Step(): %v vs %v", i/2, as, bs)
			}
		case 6: // re-arm a handle: live, fired, stopped, zero or foreign
			nextID++
			h, d := int(arg)%handles, fuzzDelay(arg>>6, hi)
			a.reset(h, d, id)
			b.reset(h, d, id)
			if aa, ba := a.active(h), b.active(h); h != foreignHandle && (!aa || !ba) {
				t.Fatalf("op %d: handle %d inactive after re-arm: %v, %v", i/2, h, aa, ba)
			}
		case 7: // one more occurrence on a lane
			nextID++
			k := int(arg) % fuzzLanes
			at := max(laneLast[k], a.now()) + fuzzDelay(arg>>6, hi)
			laneLast[k] = at
			a.lanePush(k, at, id)
			b.lanePush(k, at, id)
		case 8: // run to a deadline, wherever it falls among the keys
			deadline := a.now() + fuzzDelay(arg>>6, arg&63)
			a.runUntil(deadline)
			b.runUntil(deadline)
		}
		compareTargets(t, i/2, a, b)
	}
	a.drain()
	b.drain()
	compareTargets(t, len(data)/2, a, b)
	af, bf := a.fired(), b.fired()
	for i := range af {
		if af[i] != bf[i] {
			t.Fatalf("firing order diverges at %d: event %d vs %d\na: %v\nb: %v", i, af[i], bf[i], af, bf)
		}
	}
	if a.pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", a.pending())
	}
}

func compareTargets(t *testing.T, op int, a, b target) {
	t.Helper()
	if a.now() != b.now() {
		t.Fatalf("op %d: clock %v vs %v", op, a.now(), b.now())
	}
	if a.pending() != b.pending() {
		t.Fatalf("op %d: pending %d vs %d", op, a.pending(), b.pending())
	}
	if a.foreignPending() != b.foreignPending() {
		t.Fatalf("op %d: foreign loop pending %d vs %d", op, a.foreignPending(), b.foreignPending())
	}
	if len(a.fired()) != len(b.fired()) {
		t.Fatalf("op %d: %d events run vs %d", op, len(a.fired()), len(b.fired()))
	}
	if la, ok := a.(*loopTarget); ok && la.l.Events() != uint64(len(la.got)) {
		t.Fatalf("op %d: Events() = %d with %d callbacks run", op, la.l.Events(), len(la.got))
	}
}

// fuzzSeeds are programs in runProgram's encoding: the first byte of a
// pair is op + 9*hi, the second arg.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{0, 10, 0, 5, 2, 0, 1, 2, 0, 0})
	f.Add([]byte{4, 200, 0, 0, 2, 0, 4, 100, 2, 0, 2, 0})
	// Far-future schedule mixed with short timers.
	f.Add([]byte{5, 1, 0, 3, 2, 0, 5, 2, 2, 0, 2, 0, 2, 0})
	// One timer (handle 2) pushed out again and again, then pulled in,
	// with deadlines between its stale key and its current one; then the
	// zero and the foreign handle re-armed, stopped and re-armed.
	f.Add([]byte{0, 1, 6 + 9*5, 2, 6 + 9*9, 2, 8, 3, 6 + 9*20, 2, 6 + 9*1, 2, 8, 20, 2, 0,
		6 + 9*3, 0, 6 + 9*3, 1, 1, 0, 1, 1, 6 + 9*4, 1})
	// A re-arm draws a fresh sequence number: timers scheduled for the
	// same instant before and after it run around it in schedule order.
	f.Add([]byte{0, 2, 0, 9, 6 + 9*9, 2, 0, 9, 6 + 9*9, 3, 0, 9, 2, 0, 2, 0, 2, 0, 2, 0})
	// Stop, then revive in place; stop again and let the entry surface dead.
	f.Add([]byte{4, 3, 1, 2, 6 + 9*2, 64 + 2, 1, 2, 8, 127, 6, 2, 2, 0})
	// Two lanes interleaved with timers at equal timestamps.
	f.Add([]byte{7, 0, 7, 1, 0, 0, 7, 0, 7 + 9*2, 1, 2, 0, 7 + 9*2, 0, 0, 2, 8, 5, 7, 1, 2, 0, 2, 0})
	// Cancel-heavy churn across magnitudes, past the compaction threshold.
	seed := make([]byte, 0, 600)
	for i := 0; i < 100; i++ {
		seed = append(seed, []byte{0, 4, 5, 0, 6, 7}[i%6]+9*byte(i%7), byte(i*11))
	}
	for i := 0; i < 100; i++ {
		seed = append(seed, 1, byte(i*3))
	}
	for i := 0; i < 100; i++ {
		seed = append(seed, 6+9*byte(i%5), byte(i*5))
	}
	f.Add(seed)
}

// FuzzLoopSchedule drives the event loop and the reference scheduler
// with the same byte-derived program and demands identical observable
// behaviour. The loop re-arms with Reset / ResetAt and schedules lane
// occurrences with Lane.Push; the reference cancels and schedules
// afresh, and files every occurrence on its own. It exercises the
// inline heap's sift paths, the generation-counted timer handles, lazy
// compaction (cancel-heavy inputs push past the threshold), in-place
// re-arming in every handle state and lazy re-filing under deadlines
// that fall between a stale key and its current one.
func FuzzLoopSchedule(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runProgram(t, data, newLoopTarget(false), newRefSched())
	})
}

// FuzzInPlaceVsPlain holds the loop's in-place primitives to the plain
// program on a second loop of the same kind. One loop re-arms with
// Reset / ResetAt and schedules lane occurrences with Lane.Push; the
// other runs Stop then After, and one At per occurrence. Where FuzzLoopSchedule checks the loop against an
// independent oracle, this checks that Reset's in-place re-filing and a
// lane's single queued head are observably nothing more than the
// operations they replace, on the same heap.
func FuzzInPlaceVsPlain(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runProgram(t, data, newLoopTarget(false), newLoopTarget(true))
	})
}

// A long randomized soak of the same properties, so plain `go test`
// exercises deep schedules — compaction, re-filing, lanes refilled
// mid-run — without waiting for the fuzzer.
func TestLoopMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 8000)
		rng.Read(data)
		runProgram(t, data, newLoopTarget(false), newRefSched())
		runProgram(t, data, newLoopTarget(false), newLoopTarget(true))
	}
}
