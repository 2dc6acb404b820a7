package sim

import (
	"math/rand"
	"testing"
	"time"
)

// FuzzWheelVsHeap drives a wheel-backed loop that re-arms with Reset and
// schedules lane occurrences with Lane.Push, and a heap-backed loop
// running the reference program — Stop then After, one At per
// occurrence — with the same byte-derived program (runProgram), and
// demands identical observable behaviour. Delays come at three
// magnitudes, so stale and lane entries are re-filed into the ready
// buffer (sub-tick), the level hierarchy (seconds to minutes) and the
// overflow list (days, past the ~78 h horizon).
func FuzzWheelVsHeap(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runProgram(t, data, newLoopTarget(Wheel, false), newLoopTarget(Heap, true))
	})
}

// A long randomized soak of the same differential property, so plain
// `go test` exercises deep wheel behaviour (cascades, compaction,
// rebase, re-filing) without waiting for the fuzzer — and the heap's,
// against the reference scheduler.
func TestWheelMatchesHeapRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 8000)
		rng.Read(data)
		runProgram(t, data, newLoopTarget(Wheel, false), newLoopTarget(Heap, true))
		runProgram(t, data[:2000], newLoopTarget(Heap, false), newRefSched())
	}
}

// The wheel must honour the same compaction bound as the heap: a
// cancel-heavy workload keeps physical occupancy proportional to the
// live event count.
func TestWheelCancelledEventsAreCompacted(t *testing.T) {
	l := NewLoopSched(1, Wheel)
	const rounds = 100
	const perRound = 200
	var maxQueue int
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
		if n := l.Queued(); n > maxQueue {
			maxQueue = n
		}
	}
	if bound := 2*perRound + compactMin; maxQueue > bound {
		t.Errorf("wheel occupancy reached %d entries, want <= %d", maxQueue, bound)
	}
	l.Run()
	if n := l.Queued(); n != 0 {
		t.Errorf("queue holds %d entries after Run, want 0", n)
	}
}

// Overflow entries (past the ~78 h horizon) must fire at the right
// times and in the right order once the wheels rebase onto them.
func TestWheelOverflowRebase(t *testing.T) {
	l := NewLoopSched(1, Wheel)
	var fired []time.Duration
	record := func() { fired = append(fired, l.Now()) }
	l.At(200*time.Hour, record)
	l.At(100*time.Hour, record)
	l.At(time.Millisecond, record)
	l.At(100*time.Hour+time.Microsecond, record)
	l.Run()
	want := []time.Duration{
		time.Millisecond, 100 * time.Hour, 100*time.Hour + time.Microsecond, 200 * time.Hour,
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, fired[i], want[i])
		}
	}
}

// The wheel path must stay allocation-free in steady state, like the
// heap (the ready buffer, buckets, and slot table all recycle).
func TestWheelAfterStepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	l := NewLoopSched(1, Wheel)
	fn := func() {}
	for i := 0; i < 128; i++ {
		l.After(time.Duration(i%13)*time.Microsecond, fn)
	}
	l.Run()
	if avg := testing.AllocsPerRun(200, func() {
		l.After(time.Microsecond, fn)
		l.Step()
	}); avg != 0 {
		t.Errorf("wheel After+Step allocates %v/op in steady state, want 0", avg)
	}
}

// BenchmarkWheelAfterStep is the wheel twin of BenchmarkAfterStep; the
// scheduler choice is the only difference.
func BenchmarkWheelAfterStep(b *testing.B) {
	l := NewLoopSched(1, Wheel)
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

// BenchmarkDenseTimers measures both schedulers in the regime the wheel
// targets: thousands of outstanding timers with constant churn, where
// the heap pays O(log n) per operation and the wheel does not.
func BenchmarkDenseTimers(b *testing.B) {
	for _, sched := range []struct {
		name string
		kind Scheduler
	}{{"heap", Heap}, {"wheel", Wheel}} {
		b.Run(sched.name, func(b *testing.B) {
			l := NewLoopSched(1, sched.kind)
			fn := func() {}
			// Standing population: 8k timers spread over 100ms.
			for i := 0; i < 8192; i++ {
				l.After(time.Duration(i%100)*time.Millisecond+time.Duration(i)*time.Microsecond, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.After(50*time.Millisecond, fn)
				l.Step()
			}
		})
	}
}
