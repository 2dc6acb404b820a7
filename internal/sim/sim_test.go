package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestLoopStartsAtZero(t *testing.T) {
	l := NewLoop(1)
	if got := l.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAfterRunsInOrder(t *testing.T) {
	l := NewLoop(1)
	var order []int
	l.After(30*time.Millisecond, func() { order = append(order, 3) })
	l.After(10*time.Millisecond, func() { order = append(order, 1) })
	l.After(20*time.Millisecond, func() { order = append(order, 2) })
	l.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v, want [1 2 3]", order)
	}
	if got := l.Now(); got != 30*time.Millisecond {
		t.Fatalf("Now() after Run = %v, want 30ms", got)
	}
}

func TestSameInstantRunsInScheduleOrder(t *testing.T) {
	l := NewLoop(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	l.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending schedule order", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	l := NewLoop(1)
	var fired []time.Duration
	l.After(time.Millisecond, func() {
		fired = append(fired, l.Now())
		l.After(time.Millisecond, func() {
			fired = append(fired, l.Now())
		})
	})
	l.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 2*time.Millisecond {
		t.Fatalf("fired at %v, want [1ms 2ms]", fired)
	}
}

func TestTimerStop(t *testing.T) {
	l := NewLoop(1)
	ran := false
	tm := l.After(time.Millisecond, func() { ran = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should return true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should return false")
	}
	l.Run()
	if ran {
		t.Fatal("stopped timer fired")
	}
	if tm.Active() {
		t.Fatal("stopped timer reports active")
	}
}

func TestStopAfterFireReturnsFalse(t *testing.T) {
	l := NewLoop(1)
	tm := l.After(time.Millisecond, func() {})
	l.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should return false")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Stop() || tm.Active() {
		t.Fatal("zero Timer should be inert")
	}
	var nilTm *Timer
	if nilTm.Stop() || nilTm.Active() {
		t.Fatal("nil *Timer should be inert")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	l := NewLoop(1)
	var ran []time.Duration
	l.After(5*time.Millisecond, func() { ran = append(ran, l.Now()) })
	l.After(15*time.Millisecond, func() { ran = append(ran, l.Now()) })
	l.RunUntil(10 * time.Millisecond)
	if len(ran) != 1 || ran[0] != 5*time.Millisecond {
		t.Fatalf("ran %v, want only the 5ms event", ran)
	}
	if l.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v, want 10ms", l.Now())
	}
	l.RunUntil(20 * time.Millisecond)
	if len(ran) != 2 || ran[1] != 15*time.Millisecond {
		t.Fatalf("ran %v, want both events after second RunUntil", ran)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	l := NewLoop(1)
	ran := false
	l.After(10*time.Millisecond, func() { ran = true })
	l.RunUntil(10 * time.Millisecond)
	if !ran {
		t.Fatal("event exactly at the deadline should run")
	}
}

func TestStopHaltsRun(t *testing.T) {
	l := NewLoop(1)
	count := 0
	for i := 1; i <= 5; i++ {
		l.After(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				l.Stop()
			}
		})
	}
	l.Run()
	if count != 2 {
		t.Fatalf("Run executed %d events after Stop, want 2", count)
	}
	l.Run() // resumes with remaining queue
	if count != 5 {
		t.Fatalf("resumed Run executed %d total, want 5", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	l := NewLoop(1)
	l.After(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past should panic")
			}
		}()
		l.At(5*time.Millisecond, func() {})
	})
	l.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At with nil callback should panic")
		}
	}()
	NewLoop(1).After(0, nil)
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	l := NewLoop(1)
	var at time.Duration = -1
	l.After(-time.Second, func() { at = l.Now() })
	l.Run()
	if at != 0 {
		t.Fatalf("negative After ran at %v, want 0", at)
	}
}

func TestPendingCount(t *testing.T) {
	l := NewLoop(1)
	a := l.After(time.Millisecond, func() {})
	l.After(2*time.Millisecond, func() {})
	if l.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", l.Pending())
	}
	a.Stop()
	if l.Pending() != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", l.Pending())
	}
	l.Run()
	if l.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", l.Pending())
	}
}

// Property: for any batch of events with arbitrary nonnegative delays,
// the loop fires them in nondecreasing time order and fires all of them.
func TestEventOrderProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) > 512 {
			delaysMs = delaysMs[:512]
		}
		l := NewLoop(7)
		var fired []time.Duration
		for _, d := range delaysMs {
			l.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, l.Now())
			})
		}
		l.Run()
		if len(fired) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Step never decreases the clock.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		l := NewLoop(3)
		for _, d := range delays {
			l.After(time.Duration(d)*time.Microsecond, func() {})
		}
		prev := l.Now()
		for l.Step() {
			if l.Now() < prev {
				return false
			}
			prev = l.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := NewLoop(1)
		for j := 0; j < 1000; j++ {
			l.After(time.Duration(j%97)*time.Microsecond, func() {})
		}
		l.Run()
	}
}

func TestEveryFiresAtInterval(t *testing.T) {
	l := NewLoop(1)
	var at []time.Duration
	p := Every(l, 10*time.Millisecond, func() { at = append(at, l.Now()) })
	l.RunUntil(35 * time.Millisecond)
	p.Stop()
	l.RunUntil(100 * time.Millisecond)
	if len(at) != 3 {
		t.Fatalf("fired %d times, want 3", len(at))
	}
	for i, want := range []time.Duration{10, 20, 30} {
		if at[i] != want*time.Millisecond {
			t.Fatalf("firing %d at %v, want %vms", i, at[i], want)
		}
	}
	if l.Pending() != 0 {
		t.Fatalf("%d events pending after Stop", l.Pending())
	}
}

func TestEveryStopFromCallback(t *testing.T) {
	l := NewLoop(1)
	n := 0
	var p *Periodic
	p = Every(l, time.Millisecond, func() {
		n++
		if n == 2 {
			p.Stop()
		}
	})
	l.Run()
	if n != 2 {
		t.Fatalf("fired %d times, want 2", n)
	}
}

func TestEveryValidation(t *testing.T) {
	l := NewLoop(1)
	for name, fn := range map[string]func(){
		"zero interval": func() { Every(l, 0, func() {}) },
		"nil callback":  func() { Every(l, time.Second, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}
