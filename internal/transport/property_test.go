package transport

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/steering"
)

// Explicit property tests for exactly-once delivery: beyond the
// standing invariant in deliverMsg (armed by TestMain for every test
// here), these pin the observable property at the application surface
// — every message the app sends arrives exactly once, whatever the
// fault schedule does to the channels underneath.

// exactlyOnceUnder runs a reliable 100-message stream under spec for
// each steering flavor and asserts per-ID exactly-once delivery.
func exactlyOnceUnder(t *testing.T, spec fault.Spec, seed int64) {
	t.Helper()
	policies := []struct {
		name string
		mk   func(w *world, side channel.Side) steering.Policy
	}{
		{"embb-only", func(w *world, _ channel.Side) steering.Policy { return w.embbOnly() }},
		{"dchannel", func(w *world, side channel.Side) steering.Policy { return w.dchannel(side) }},
		{"redundant", func(w *world, _ channel.Side) steering.Policy { return steering.NewRedundant(w.group) }},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			w := newWorld(seed)
			if err := fault.Inject(w.loop, w.group, spec, nil); err != nil {
				t.Fatal(err)
			}
			var got []Message
			w.listen(func() Config {
				return Config{CC: cc.NewCubic(), Steer: pol.mk(w, channel.B)}
			}, &got)
			conn := w.client.Dial(Config{CC: cc.NewCubic(), Steer: pol.mk(w, channel.A)})
			st := conn.NewStream()
			const n = 100
			for i := 0; i < n; i++ {
				i := i
				w.loop.At(time.Duration(i)*50*time.Millisecond, func() {
					conn.SendMessage(st, 0, 1000, i)
				})
			}
			// Run far past the schedule so every retransmission and every
			// stale copy stranded on a blacked-out channel drains out.
			w.loop.RunUntil(60 * time.Second)
			CheckLedger(w.client, w.server)

			seen := make(map[int]int)
			for _, m := range got {
				seen[m.Data.(int)]++
			}
			for i := 0; i < n; i++ {
				if seen[i] != 1 {
					t.Errorf("message %d delivered %d times, want exactly once", i, seen[i])
				}
			}
			if len(got) != n {
				t.Errorf("delivered %d messages, want %d", len(got), n)
			}
		})
	}
}

// TestExactlyOnceUnderDefaultFault drives the canonical blackout
// schedule every outage experiment uses.
func TestExactlyOnceUnderDefaultFault(t *testing.T) {
	exactlyOnceUnder(t, fault.Default(channel.NameEMBB, 5*time.Second), 1)
}

// TestExactlyOnceUnderRandomizedFault draws seeded-random compound
// schedules — outages, bursts, slumps, and spikes on both channels —
// and holds the property under each.
func TestExactlyOnceUnderRandomizedFault(t *testing.T) {
	for _, metaseed := range []int64{3, 17} {
		rng := rand.New(rand.NewSource(metaseed))
		spec := randomSchedule(rng, 5*time.Second)
		t.Run(fmt.Sprintf("metaseed=%d", metaseed), func(t *testing.T) {
			exactlyOnceUnder(t, spec, metaseed)
		})
	}
}

// randomSchedule is a miniature of the chaos generator (the real one
// lives in internal/chaos, which this package must not import): one
// window per (channel, kind), placed anywhere in the run.
func randomSchedule(rng *rand.Rand, dur time.Duration) fault.Spec {
	var spec fault.Spec
	for _, ch := range []string{channel.NameEMBB, channel.NameURLLC} {
		for _, kind := range []fault.Kind{fault.Outage, fault.Burst, fault.Slump, fault.Spike} {
			if rng.Intn(2) == 0 {
				continue
			}
			ev := fault.Event{
				Kind:    kind,
				Channel: ch,
				At:      time.Duration(rng.Int63n(int64(dur / 2))).Truncate(time.Millisecond),
				Dur:     (dur/16 + time.Duration(rng.Int63n(int64(dur/4)))).Truncate(time.Millisecond),
				Count:   1,
			}
			switch kind {
			case fault.Burst:
				ev.PGB, ev.PBG, ev.LossBad = 0.02, 0.3, 0.95
			case fault.Slump:
				ev.Factor = 0.1 + rng.Float64()*0.4
			case fault.Spike:
				ev.Delay = 50 * time.Millisecond
			}
			spec.Events = append(spec.Events, ev)
		}
	}
	return spec
}
