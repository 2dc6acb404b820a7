package cc

import (
	"math/rand"
	"testing"
	"time"
)

// scanWindow is the filter the kernel replaced, kept as its oracle: it
// holds every unexpired sample and rescans them all for each answer.
type scanWindow struct {
	at []int64
	v  []int64
}

func (s *scanWindow) add(at, v int64) {
	s.at, s.v = append(s.at, at), append(s.v, v)
}

func (s *scanWindow) expire(cutoff int64) {
	n := 0
	for i, at := range s.at {
		if at >= cutoff {
			s.at[n], s.v[n] = at, s.v[i]
			n++
		}
	}
	s.at, s.v = s.at[:n], s.v[:n]
}

func (s *scanWindow) extremes() (lo, hi int64) {
	for i, v := range s.v {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// FuzzWindowedExtremum drives the monotonic-deque kernel and a full
// rescan with the same samples and cutoffs, and requires the same
// minimum and maximum after every step. Each step is three script
// bytes: how far the stamp advances (possibly not at all), the value
// (a small alphabet, so ties and repeats are common), and where the
// cutoff falls relative to the stamp — anywhere from well behind it to
// just past it, independently each step, so the cutoff moves backwards
// as freely as Copa's now−srtt/2 does when srtt grows.
func FuzzWindowedExtremum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 10, 1, 4, 10, 1, 3, 10, 1, 9, 10, 1, 9, 0})       // falling then a new peak, a tie
	f.Add([]byte{0, 7, 40, 0, 7, 40, 3, 2, 33, 9, 8, 20, 0, 1, 34})      // equal stamps; the window empties
	f.Add([]byte{2, 1, 30, 2, 2, 31, 2, 3, 20, 2, 4, 31, 2, 0, 10})      // cutoff retreats and returns
	f.Add([]byte{1, 9, 8, 1, 8, 8, 1, 7, 8, 1, 6, 8, 1, 5, 8, 1, 4, 38}) // long monotone run, then expiry
	f.Add([]byte{1, 12, 0, 1, 5, 31})                                    // the max sits exactly on the cutoff: kept
	f.Add([]byte{1, 0, 0, 1, 5, 31, 1, 5, 32})                           // so does the min, then one past: gone
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*2048 {
			script = script[:3*2048]
		}
		hi := windowed[int64, float64]{}
		lo := windowed[time.Duration, time.Duration]{min: true}
		var want scanWindow
		var now int64
		for i := 0; i+2 < len(script); i += 3 {
			now += int64(script[i] % 8)
			v := int64(script[i+1]%16) - 4
			cutoff := now - 32 + int64(script[i+2]%40)

			want.add(now, v)
			want.expire(cutoff)
			hi.add(now, float64(v))
			hi.expire(cutoff)
			lo.add(time.Duration(now), time.Duration(v))
			lo.expire(time.Duration(cutoff))

			wantLo, wantHi := want.extremes()
			if got := hi.best(); got != float64(wantHi) {
				t.Fatalf("step %d: windowed max %v, rescan of %d samples says %v", i/3, got, len(want.v), wantHi)
			}
			if got := lo.best(); got != time.Duration(wantLo) {
				t.Fatalf("step %d: windowed min %v, rescan of %d samples says %v", i/3, got, len(want.v), wantLo)
			}
		}
	})
}

// The deque reuses the room expiry frees at its front: a window that
// has stopped growing stops allocating, whatever passes through it.
func TestWindowedStorageBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w windowed[int64, float64]
	const span = 100
	for now := int64(0); now < 200*span; now++ {
		// A falling ramp keeps every sample until it expires: the worst
		// case for a max filter, span live samples at all times.
		w.add(now, float64(-now)+rng.Float64())
		w.expire(now - span + 1)
		if live := len(w.q) - w.head; live > span {
			t.Fatalf("window holds %d samples, want <= %d", live, span)
		}
	}
	if c := cap(w.q); c > 4*span {
		t.Errorf("deque grew to %d slots for a %d-sample window", c, span)
	}
}
