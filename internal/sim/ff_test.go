package sim

import (
	"testing"
	"time"
)

// A quiet-time jump is what the loop produces when every event between
// now and some far deadline is cancelled: the clock leaps there in one
// step. A Periodic must keep
// re-arming across such a jump with its cadence intact, and timers
// scheduled *inside* the jumped-over interval by surviving callbacks
// must still fire in order.
func TestPeriodicRearmAcrossQuietJump(t *testing.T) {
	type fire struct {
		at   time.Duration
		what string
	}
	l := NewLoop(1)
	var got []fire
	p := Every(l, 7*time.Millisecond, func() {
		got = append(got, fire{l.Now(), "tick"})
	})
	// A dense block of timers filling [0, 500ms]... all cancelled, so the
	// stretch between the surviving events is pure quiet time.
	var cancelled []Timer
	for i := 0; i < 400; i++ {
		cancelled = append(cancelled, l.At(time.Duration(i+1)*time.Millisecond, func() {
			t.Error("cancelled timer fired")
		}))
	}
	for _, c := range cancelled {
		c.Stop()
	}
	// A survivor in the middle schedules a new timer further into the
	// formerly dense interval.
	l.At(250*time.Millisecond, func() {
		got = append(got, fire{l.Now(), "mid"})
		l.At(333*time.Millisecond, func() {
			got = append(got, fire{l.Now(), "inner"})
		})
	})
	l.RunUntil(420 * time.Millisecond)
	p.Stop()

	var ticks, mids, inners int
	for i, f := range got {
		if i > 0 && f.at < got[i-1].at {
			t.Fatalf("%s at %v fired after %s at %v", f.what, f.at, got[i-1].what, got[i-1].at)
		}
		switch f.what {
		case "tick":
			ticks++
			if want := time.Duration(ticks) * 7 * time.Millisecond; f.at != want {
				t.Fatalf("tick %d at %v, want %v — cadence drifted across the jump", ticks, f.at, want)
			}
		case "mid":
			mids++
			if f.at != 250*time.Millisecond {
				t.Fatalf("mid survivor fired at %v", f.at)
			}
		case "inner":
			inners++
			if f.at != 333*time.Millisecond {
				t.Fatalf("inner timer fired at %v", f.at)
			}
		}
	}
	if want := int(420 / 7); ticks != want {
		t.Fatalf("got %d periodic ticks, want %d", ticks, want)
	}
	if mids != 1 || inners != 1 {
		t.Fatalf("mid fired %d times, inner %d; want once each", mids, inners)
	}
}
