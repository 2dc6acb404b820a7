package chaos

import (
	"math/rand"
	"testing"
	"time"

	"hvc/internal/fault"
	"hvc/internal/spec"
)

// FuzzChaosScheduleGen drives the schedule generator with arbitrary
// meta-seeds and run lengths: whatever the inputs, the generated spec
// must validate, render canonically, and survive a parse round trip —
// the properties the soak and the shrinker both lean on.
func FuzzChaosScheduleGen(f *testing.F) {
	f.Add(int64(0), int64(4_000))
	f.Add(int64(42), int64(500))
	f.Add(int64(-1), int64(60_000))
	f.Fuzz(func(t *testing.T, seed, durMS int64) {
		if durMS < 100 {
			durMS = 100
		}
		if durMS > 120_000 {
			durMS %= 120_000
		}
		dur := time.Duration(durMS) * time.Millisecond
		rng := rand.New(rand.NewSource(seed))
		sched := genSpec(rng, dur)
		if err := sched.Validate(); err != nil {
			t.Fatalf("seed=%d dur=%v: invalid spec: %v\n%s", seed, dur, err, sched)
		}
		if err := spec.RoundTrip(sched, fault.ParseSpec); err != nil {
			t.Fatalf("seed=%d dur=%v: %v", seed, dur, err)
		}

		// The whole trial must round-trip too, as a sweep cell line:
		// generated trials are valid by construction, names included.
		if err := lineRoundTrip(genJob(rand.New(rand.NewSource(seed)), dur)); err != nil {
			t.Fatalf("seed=%d dur=%v: %v", seed, dur, err)
		}
	})
}
