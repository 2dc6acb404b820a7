package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hvc/internal/invariant"
)

// Reset is observably Stop followed by After whatever state a handle of
// its own loop is in: same firing order (the re-armed timer takes a fresh sequence
// number, so it runs after everything already scheduled for its
// instant), same clocks, Pending and Events, and the same answers from
// copies of the old handle, under deadlines that fall between the key
// the entry was filed under and the one it holds now.
func TestResetMatchesStopAfter(t *testing.T) {
	const ms = time.Millisecond
	type world struct {
		l     *Loop
		rearm func(tm *Timer, d time.Duration, fn func())
		log   []string
	}
	mark := func(w *world, what string) func() {
		return func() { w.log = append(w.log, fmt.Sprintf("%s@%v", what, w.l.Now())) }
	}
	// probe records everything a caller can ask of a handle and the loop.
	probe := func(w *world, name string, tm *Timer) {
		w.log = append(w.log, fmt.Sprintf("%s active=%v pending=%d events=%d now=%v",
			name, tm.Active(), w.l.Pending(), w.l.Events(), w.l.Now()))
	}
	cases := []struct {
		name string
		run  func(w *world)
	}{
		{"live, later", func(w *world) {
			tm := w.l.After(10*ms, mark(w, "old"))
			old := tm
			w.l.After(30*ms, mark(w, "tie-before"))
			w.rearm(&tm, 30*ms, mark(w, "new"))
			w.l.After(30*ms, mark(w, "tie-after"))
			probe(w, "old copy", &old)
			probe(w, "handle", &tm)
			w.log = append(w.log, fmt.Sprint("stop old copy: ", old.Stop()))
			w.l.RunUntil(20 * ms) // between the stale key and the current one
			probe(w, "handle", &tm)
		}},
		{"live, same instant", func(w *world) {
			tm := w.l.After(10*ms, mark(w, "old"))
			w.l.After(10*ms, mark(w, "tie"))
			w.rearm(&tm, 10*ms, mark(w, "new"))
			probe(w, "handle", &tm)
		}},
		{"live, earlier", func(w *world) {
			tm := w.l.After(30*ms, mark(w, "old"))
			old := tm
			w.l.After(10*ms, mark(w, "tie"))
			w.rearm(&tm, 10*ms, mark(w, "new"))
			probe(w, "old copy", &old)
			w.l.RunUntil(20 * ms)
			probe(w, "handle", &tm)
		}},
		{"pushed out twice, then pulled in", func(w *world) {
			tm := w.l.After(5*ms, mark(w, "old"))
			w.rearm(&tm, 20*ms, mark(w, "second"))
			w.rearm(&tm, 40*ms, mark(w, "third"))
			w.l.RunUntil(10 * ms)
			probe(w, "handle", &tm)
			w.rearm(&tm, 15*ms, mark(w, "fourth")) // 25ms: before the recorded 40ms
			w.l.RunUntil(30 * ms)
			probe(w, "handle", &tm)
		}},
		{"fired", func(w *world) {
			tm := w.l.After(5*ms, mark(w, "old"))
			w.l.RunUntil(7 * ms)
			w.rearm(&tm, 5*ms, mark(w, "new"))
			probe(w, "handle", &tm)
		}},
		{"stopped but queued, later", func(w *world) {
			tm := w.l.After(10*ms, mark(w, "old"))
			old := tm
			w.log = append(w.log, fmt.Sprint("stop: ", tm.Stop()))
			probe(w, "stopped", &tm)
			w.rearm(&tm, 25*ms, mark(w, "new"))
			probe(w, "old copy", &old)
			probe(w, "handle", &tm)
			w.l.RunUntil(15 * ms)
			probe(w, "handle", &tm)
		}},
		{"stopped but queued, earlier", func(w *world) {
			tm := w.l.After(30*ms, mark(w, "old"))
			tm.Stop()
			w.rearm(&tm, 10*ms, mark(w, "new"))
			probe(w, "handle", &tm)
		}},
		{"re-armed, then stopped", func(w *world) {
			tm := w.l.After(10*ms, mark(w, "old"))
			w.rearm(&tm, 20*ms, mark(w, "new"))
			w.log = append(w.log, fmt.Sprint("stop: ", tm.Stop()))
			probe(w, "handle", &tm)
		}},
		{"zero", func(w *world) {
			var tm Timer
			w.rearm(&tm, 10*ms, mark(w, "new"))
			probe(w, "handle", &tm)
		}},
		{"negative delay", func(w *world) {
			tm := w.l.After(10*ms, mark(w, "old"))
			w.l.After(0, mark(w, "tie"))
			w.rearm(&tm, -ms, mark(w, "new"))
			probe(w, "handle", &tm)
		}},
	}
	for _, tc := range cases {
		run := func(reset bool) []string {
			w := &world{l: NewLoop(1)}
			w.rearm = func(tm *Timer, d time.Duration, fn func()) {
				if reset {
					w.l.Reset(tm, d, fn)
				} else {
					tm.Stop()
					*tm = w.l.After(d, fn)
				}
			}
			w.l.After(ms, mark(w, "bystander"))
			tc.run(w)
			w.l.Run()
			w.log = append(w.log, fmt.Sprintf("end now=%v pending=%d events=%d", w.l.Now(), w.l.Pending(), w.l.Events()))
			return w.log
		}
		if got, want := run(true), run(false); !slices.Equal(got, want) {
			t.Errorf("%s:\nReset:      %q\nStop+After: %q", tc.name, got, want)
		}
	}
}

// A handle another loop issued is never stopped by Reset, which would
// write into that loop from whichever goroutine runs this one. With
// checking on, the re-arm fails sim/foreign-timer before touching either
// loop; with it off, the handle is replaced and the other loop's event
// left as it was.
func TestResetRefusesForeignTimer(t *testing.T) {
	const ms = time.Millisecond
	l, other := NewLoop(1), NewLoop(2)
	fired := 0
	tm := other.After(10*ms, func() { fired++ })
	if invariant.Compiled {
		func() {
			defer func() {
				v, _ := recover().(*invariant.Violation)
				if v == nil || v.Layer != "sim" || v.Name != "foreign-timer" {
					t.Errorf("Reset of a foreign timer: got %v, want sim/foreign-timer", v)
				}
			}()
			l.Reset(&tm, 5*ms, func() { t.Error("refused re-arm fired") })
		}()
		if !tm.Active() || l.Pending() != 0 || other.Pending() != 1 {
			t.Fatalf("refused re-arm changed state: active=%v pending=%d other=%d",
				tm.Active(), l.Pending(), other.Pending())
		}
	}
	invariant.SetEnabled(false)
	defer invariant.SetEnabled(true)
	old := tm
	l.Reset(&tm, 5*ms, func() { fired += 10 })
	if !tm.Active() || !old.Active() || l.Pending() != 1 || other.Pending() != 1 {
		t.Fatalf("unchecked re-arm: active=%v old=%v pending=%d other=%d",
			tm.Active(), old.Active(), l.Pending(), other.Pending())
	}
	l.Run()
	other.Run()
	if fired != 11 {
		t.Fatalf("fired = %d, want the new callback on this loop and the old one on its own (11)", fired)
	}
}

// The point of Reset: pushing a queued timer out leaves the queue alone.
func TestResetKeepsTheQueuedEntry(t *testing.T) {
	l := NewLoop(1)
	fired := 0
	tm := l.After(time.Millisecond, func() { fired++ })
	for i := 0; i < 1000; i++ {
		l.Reset(&tm, time.Duration(i+2)*time.Millisecond, func() { fired++ })
		tm.Stop()
		l.Reset(&tm, time.Duration(i+2)*time.Millisecond, func() { fired++ })
		if n := l.Queued(); n != 1 {
			t.Fatalf("%d entries queued after %d re-arms, want 1", n, i+1)
		}
	}
	l.Run()
	if fired != 1 || l.Now() != 1001*time.Millisecond || l.Events() != 1 {
		t.Fatalf("fired %d times, %d events, clock %v; want once at 1.001s", fired, l.Events(), l.Now())
	}
}

// A lane's occurrences run when and in the order one At per occurrence
// would run them, interleaved with everything else by (at, seq), while
// only the lane's head occupies the queue.
func TestLaneFiresLikeAt(t *testing.T) {
	run := func(lanes bool) (log []string, peak int) {
		l := NewLoop(1)
		mark := func(what string) func() {
			return func() {
				log = append(log, fmt.Sprintf("%s@%v", what, l.Now()))
				peak = max(peak, l.Queued())
			}
		}
		n := 0
		ln := NewLane(l, func() { n++; mark(fmt.Sprint("lane", n))() })
		push := func(at time.Duration) {
			if lanes {
				ln.Push(at)
			} else {
				l.At(at, ln.fn)
			}
		}
		for i := 0; i < 100; i++ {
			at := time.Duration(i/3) * time.Millisecond // bursts of three per instant
			if i%10 == 0 {
				l.At(at, mark("timer-before"))
			}
			push(at)
			if i%10 == 5 {
				l.At(at, mark("timer-after"))
			}
		}
		if l.Pending() != 120 {
			t.Fatalf("Pending = %d after 100 pushes and 20 timers, want 120", l.Pending())
		}
		if lanes && (l.Queued() != 21 || ln.Len() != 100) {
			t.Fatalf("Queued = %d, Len = %d; want the 20 timers and the lane's head queued, 100 held", l.Queued(), ln.Len())
		}
		l.RunUntil(10 * time.Millisecond)
		// Refill a lane that is part-drained, from inside a run.
		push(35 * time.Millisecond)
		push(40 * time.Millisecond)
		l.Run()
		// And one that ran dry.
		push(l.Now())
		l.Run()
		log = append(log, fmt.Sprintf("end now=%v pending=%d events=%d", l.Now(), l.Pending(), l.Events()))
		return log, peak
	}
	got, peak := run(true)
	want, _ := run(false)
	if !slices.Equal(got, want) {
		t.Errorf("lane: %q\nAt:   %q", got, want)
	}
	if peak > 21 {
		t.Errorf("queue held %d entries, want the 20 timers and the lane's head", peak)
	}
}

func TestLanePushPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	l := NewLoop(1)
	mustPanic("nil callback", func() { NewLane(l, nil) })
	ln := NewLane(l, func() {})
	ln.Push(5 * time.Millisecond)
	mustPanic("before the previous occurrence", func() { ln.Push(4 * time.Millisecond) })
	l.Run()
	mustPanic("before the previous occurrence, lane drained", func() { ln.Push(4 * time.Millisecond) })
	l.RunUntil(10 * time.Millisecond)
	mustPanic("empty lane, in the past", func() { ln.Push(7 * time.Millisecond) })
	if ln.Len() != 0 || l.Pending() != 0 {
		t.Fatalf("refused pushes left Len=%d Pending=%d", ln.Len(), l.Pending())
	}
}

// retireSchedule drives l through timers, a re-armed timer and a lane
// deep enough to grow a ring, logging what fires.
func retireSchedule(l *Loop, log *[]string) *Lane {
	note := func(what string) func() {
		return func() { *log = append(*log, fmt.Sprintf("%s@%v", what, l.Now())) }
	}
	ln := new(Lane)
	*ln = NewLane(l, note("lane"))
	for i := 0; i < 100; i++ {
		ln.Push(time.Duration(i) * time.Millisecond)
		l.After(time.Duration(i)*time.Millisecond+time.Microsecond, note("timer"))
	}
	tm := l.After(5*time.Millisecond, note("old"))
	l.Reset(&tm, 50*time.Millisecond, note("reset"))
	return ln
}

// A retired loop hands its queue, slot table and lane rings to the loop
// that adopts them, which runs exactly as a new one would and grows
// nothing the retired one had grown; the retired loop itself, and its
// lanes, are empty and fail sim/retired-loop if run or scheduled on.
func TestRetireHandsOnArrays(t *testing.T) {
	old := NewLoop(1)
	var ignored []string
	oldLane := retireSchedule(old, &ignored)
	old.RunUntil(30 * time.Millisecond)
	ring, slots := &oldLane.buf[0], cap(old.slots)
	s := old.Retire()
	if oldLane.Len() != 0 || oldLane.buf != nil || old.heap != nil || old.slots != nil {
		t.Fatal("the retired loop or its lane kept its arrays")
	}
	if old.Now() != 30*time.Millisecond || old.Events() == 0 {
		t.Error("retiring changed the clock or the event count")
	}
	for name, call := range map[string]func(){
		"After":    func() { old.After(time.Millisecond, func() {}) },
		"RunUntil": func() { old.RunUntil(time.Second) },
		"Step":     func() { old.Step() },
		"Push":     func() { oldLane.Push(time.Second) },
	} {
		func() {
			defer func() {
				if v, ok := recover().(*invariant.Violation); !ok || v.Name != "retired-loop" {
					t.Errorf("%s on a retired loop: got %v, want sim/retired-loop", name, v)
				}
			}()
			call()
		}()
	}

	adopted, fresh := NewLoop(2), NewLoop(2)
	adopted.Adopt(&s)
	// The lane's ring and the two it outgrew on the way (32 and 64 keys).
	if cap(adopted.slots) != slots || len(adopted.rings) != 3 || s.slots != nil {
		t.Fatalf("adopted %d slots and %d rings, want %d and 3, and an empty spare", cap(adopted.slots), len(adopted.rings), slots)
	}
	var got, want []string
	lane := retireSchedule(adopted, &got)
	retireSchedule(fresh, &want)
	if &lane.buf[0] != ring {
		t.Error("the adopting loop's lane did not end on the retired lane's ring")
	}
	adopted.Run()
	fresh.Run()
	if !slices.Equal(got, want) {
		t.Errorf("a loop on retired arrays ran differently:\n%v\nwant\n%v", got, want)
	}
}

// With fresh records on, a retired loop hands nothing on.
func TestRetireFreshDropsArrays(t *testing.T) {
	invariant.SetFresh(true)
	defer invariant.SetFresh(false)
	l := NewLoop(1)
	var ignored []string
	retireSchedule(l, &ignored)
	if s := l.Retire(); s.heap != nil || s.slots != nil || s.rings != nil {
		t.Error("a retired loop handed arrays on with fresh records on")
	}
}
