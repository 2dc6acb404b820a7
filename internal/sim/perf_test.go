package sim

import (
	"fmt"
	"testing"
	"time"
)

// Regression test for the cancelled-event leak: a workload that keeps
// scheduling timers and cancelling nearly all of them (pacing, delayed
// acks, retransmission timers) must not grow the heap without bound.
// Lazy compaction keeps the physical queue proportional to the live
// event count, and the slot table is recycled through the free list.
func TestCancelledEventsAreCompacted(t *testing.T) {
	l := NewLoop(1)
	const rounds = 100
	const perRound = 200
	var maxHeap, maxSlots int
	for r := 0; r < rounds; r++ {
		timers := make([]Timer, perRound)
		deadline := time.Duration(r+1) * time.Second
		for i := range timers {
			timers[i] = l.At(deadline, func() { t.Error("cancelled timer fired") })
		}
		for i := range timers {
			if !timers[i].Stop() {
				t.Fatal("Stop on a pending timer returned false")
			}
		}
		if n := l.Queued(); n > maxHeap {
			maxHeap = n
		}
		if n := len(l.slots); n > maxSlots {
			maxSlots = n
		}
	}
	// Without compaction the heap would hold rounds*perRound = 20000
	// dead entries. With it, occupancy stays near one round's worth.
	if bound := 2*perRound + compactMin; maxHeap > bound {
		t.Errorf("heap occupancy reached %d entries, want <= %d", maxHeap, bound)
	}
	if bound := 2 * perRound; maxSlots > bound {
		t.Errorf("slot table grew to %d, want <= %d (free list should recycle)", maxSlots, bound)
	}
	if l.Pending() != 0 {
		t.Errorf("Pending = %d after cancelling everything, want 0", l.Pending())
	}
	l.Run() // must not fire anything (t.Error above catches it)
	if n := l.Queued(); n != 0 {
		t.Errorf("queue holds %d entries after Run, want 0", n)
	}
}

// Compaction must not disturb pop order: live events fire in the same
// (time, schedule) order whether or not a compaction pass ran.
func TestCompactionPreservesOrder(t *testing.T) {
	l := NewLoop(1)
	var got []int
	var cancel []Timer
	// Interleave survivors with soon-to-die timers, cancelling two of
	// every three so the threshold trips and the compaction pass
	// rebuilds a heap containing every third entry.
	for i := 0; i < 300; i++ {
		i := i
		at := time.Duration(997*i%300) * time.Millisecond
		if i%3 == 0 {
			l.At(at, func() { got = append(got, i) })
		} else {
			cancel = append(cancel, l.At(at, func() { t.Error("dead timer fired") }))
		}
	}
	for i := range cancel {
		cancel[i].Stop()
	}
	l.Run()
	if len(got) != 100 {
		t.Fatalf("fired %d events, want 100", len(got))
	}
	// Reconstruct the expected order: ascending (at, schedule seq).
	prevAt, prevSeq := time.Duration(-1), -1
	for _, i := range got {
		at := time.Duration(997*i%300) * time.Millisecond
		if at < prevAt || (at == prevAt && i < prevSeq) {
			t.Fatalf("event %d (at %v) fired out of order", i, at)
		}
		prevAt, prevSeq = at, i
	}
}

// Allocation budget: scheduling and firing events allocates nothing
// once the loop's arrays have grown to the working set. This is the
// core zero-allocation claim — the benchmarks measure it, this test
// enforces it.
func TestAfterStepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	l := NewLoop(1)
	fn := func() {}
	// Warm up: grow the heap, slot table, and free list.
	for i := 0; i < 128; i++ {
		l.After(time.Duration(i%13)*time.Microsecond, fn)
	}
	l.Run()
	if avg := testing.AllocsPerRun(200, func() {
		l.After(time.Microsecond, fn)
		l.Step()
	}); avg != 0 {
		t.Errorf("After+Step allocates %v/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		tm := l.After(time.Microsecond, fn)
		tm.Stop()
	}); avg != 0 {
		t.Errorf("After+Stop allocates %v/op in steady state, want 0", avg)
	}
}

// A running Periodic re-arms itself through one closure built in Every,
// so each tick recycles the expired slot and allocates nothing.
func TestPeriodicReArmAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	l := NewLoop(1)
	n := 0
	p := Every(l, time.Millisecond, func() { n++ })
	defer p.Stop()
	for i := 0; i < 64; i++ {
		l.Step() // warm up
	}
	if avg := testing.AllocsPerRun(200, func() { l.Step() }); avg != 0 {
		t.Errorf("Periodic tick allocates %v/op in steady state, want 0", avg)
	}
	if n < 264 {
		t.Fatalf("periodic fired %d times, want >= 264", n)
	}
}

// Re-arming a queued timer and pushing and firing lane occurrences
// allocate nothing once the lane's ring has grown to its backlog: a
// Reset touches only the slot, and a lane's head reuses one slot and
// one queue entry for every occurrence behind it.
func TestResetAndLaneAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	l := NewLoop(1)
	fn := func() {}
	ln := NewLane(l, fn)
	tm := l.After(time.Hour, fn)
	for i := 0; i < 128; i++ { // warm up: a 64-deep lane, the loop's arrays
		ln.Push(l.Now() + time.Duration(i)*time.Microsecond)
		if i%2 == 1 {
			l.Step()
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		l.Reset(&tm, time.Hour, fn) // pushed out in place
		ln.Push(l.Now() + 200*time.Microsecond)
		l.Step()
	}); avg != 0 {
		t.Errorf("Reset + Lane.Push + Step allocates %v/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		tm.Stop()
		l.Reset(&tm, time.Hour, fn)   // revived in place
		l.Reset(&tm, time.Minute, fn) // pulled in: stop and schedule
	}); avg != 0 {
		t.Errorf("Stop + Reset allocates %v/op in steady state, want 0", avg)
	}
	if n := ln.Len(); n != 64 {
		t.Errorf("lane holds %d occurrences, want the 64 it was warmed to", n)
	}
}

func BenchmarkAfterStep(b *testing.B) {
	l := NewLoop(1)
	fn := func() {}
	for i := 0; i < 128; i++ {
		l.After(time.Duration(i%13)*time.Microsecond, fn)
	}
	l.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.After(time.Microsecond, fn)
		l.Step()
	}
}

// BenchmarkDenseTimers schedules and fires one timer per op beside a
// standing population of 8k timers spread over 100ms, the regime where
// the heap's O(log n) sift is deepest.
func BenchmarkDenseTimers(b *testing.B) {
	l := NewLoop(1)
	fn := func() {}
	for i := 0; i < 8192; i++ {
		l.After(time.Duration(i%100)*time.Millisecond+time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.After(50*time.Millisecond, fn)
		l.Step()
	}
}

func BenchmarkScheduleStopChurn(b *testing.B) {
	l := NewLoop(1)
	fn := func() {}
	var timers [64]Timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range timers {
			timers[j] = l.After(time.Duration(j)*time.Microsecond, fn)
		}
		for j := range timers {
			timers[j].Stop()
		}
		for l.Step() {
		}
	}
}

// BenchmarkResetChurn re-arms one standing timer per op beside P other
// timers, the way a connection pushes its RTO out on every ack: the
// sibling of BenchmarkScheduleStopChurn for the re-arm primitive. One op
// in 64 lets the loop run an event, so the standing population turns
// over as it does in a simulation.
func BenchmarkResetChurn(b *testing.B) {
	for _, standing := range []int{16, 512} {
		b.Run(fmt.Sprintf("p%d", standing), func(b *testing.B) {
			l := NewLoop(1)
			var fire func()
			i := 0
			fire = func() {
				i++
				l.After(time.Duration(1+i%97)*100*time.Microsecond, fire)
			}
			for t := 0; t < standing; t++ {
				fire()
			}
			fn := func() {}
			rto := l.After(200*time.Millisecond, fn)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				l.Reset(&rto, 200*time.Millisecond, fn)
				if k%64 == 0 {
					l.Step()
				}
			}
		})
	}
}

func BenchmarkPeriodicTick(b *testing.B) {
	l := NewLoop(1)
	p := Every(l, time.Millisecond, func() {})
	defer p.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}
