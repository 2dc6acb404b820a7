// Conservation property tests live in an external test package so
// they can drive the links through channel and fault — both of which
// import netem — without an import cycle. The in-line conservation
// invariant (checkConservation, armed by this binary's TestMain) fires
// on every delivery; these tests additionally pin the end-of-run
// ledger at the public surface: every packet offered to a link is
// accounted as delivered or dropped once the simulation drains.
package netem_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/packet"
	"hvc/internal/sim"
)

// conservationUnder floods both channels of a cellular-style group in
// both directions under spec, drains, and checks the ledger per link.
func conservationUnder(t *testing.T, spec fault.Spec, seed int64) {
	t.Helper()
	loop := sim.NewLoop(seed)
	g := channel.NewGroup(channel.EMBBFixed(loop), channel.URLLC(loop))
	if err := fault.Inject(loop, g, spec, nil); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, ch := range g.All() {
		ch.SetSink(channel.A, func(p *packet.Packet) { delivered++; g.Pool().Put(p) })
		ch.SetSink(channel.B, func(p *packet.Packet) { delivered++; g.Pool().Put(p) })
	}
	// Offer a steady bidirectional load for the schedule's whole span:
	// enough to overflow queues during slumps (drop-tail), ride through
	// outages (queued, delivered late), and meet the loss bursts.
	sent := 0
	for at := time.Millisecond; at < 5*time.Second; at += 2 * time.Millisecond {
		at := at
		loop.At(at, func() {
			for _, ch := range g.All() {
				for _, side := range []channel.Side{channel.A, channel.B} {
					p := g.Pool().Get()
					p.Size = 1200
					if ch.Send(side, p) {
						sent++
					} else {
						g.Pool().Put(p) // refused at entry (down channel)
					}
				}
			}
		})
	}
	// Drain: run far past the schedule so outage queues flush.
	loop.RunUntil(30 * time.Second)
	loop.Run()

	if sent == 0 || delivered == 0 {
		t.Fatalf("degenerate run: sent=%d delivered=%d", sent, delivered)
	}
	// The sinks pool what arrives, the offer loop what is refused, and
	// the links what they lose: drained, the pool has everything back.
	if live := g.Pool().Live(); live != 0 {
		t.Errorf("%d packets never came back to the pool", live)
	}
	for _, ch := range g.All() {
		for _, side := range []channel.Side{channel.A, channel.B} {
			st := ch.Stats(side)
			accounted := st.Delivered + st.DroppedQueue + st.DroppedRandom
			if st.Sent != accounted {
				t.Errorf("%s %v: Sent=%d but Delivered=%d + DroppedQueue=%d + DroppedRandom=%d = %d",
					ch.Name(), side, st.Sent, st.Delivered, st.DroppedQueue, st.DroppedRandom, accounted)
			}
		}
	}
}

// TestConservationUnderDefaultFault drives the canonical two-blackout
// schedule.
func TestConservationUnderDefaultFault(t *testing.T) {
	conservationUnder(t, fault.Default(channel.NameEMBB, 5*time.Second), 1)
}

// TestConservationUnderRandomizedFault draws seeded-random compound
// schedules across both channels and all four fault kinds.
func TestConservationUnderRandomizedFault(t *testing.T) {
	for _, metaseed := range []int64{5, 23} {
		rng := rand.New(rand.NewSource(metaseed))
		var spec fault.Spec
		for _, ch := range []string{channel.NameEMBB, channel.NameURLLC} {
			for _, kind := range []fault.Kind{fault.Outage, fault.Burst, fault.Slump, fault.Spike} {
				if rng.Intn(2) == 0 {
					continue
				}
				ev := fault.Event{
					Kind:    kind,
					Channel: ch,
					At:      time.Duration(rng.Int63n(int64(2 * time.Second))).Truncate(time.Millisecond),
					Dur:     (200*time.Millisecond + time.Duration(rng.Int63n(int64(time.Second)))).Truncate(time.Millisecond),
					Count:   1,
				}
				switch kind {
				case fault.Burst:
					ev.PGB, ev.PBG, ev.LossBad = 0.05, 0.3, 0.9
				case fault.Slump:
					ev.Factor = 0.05
				case fault.Spike:
					ev.Delay = 80 * time.Millisecond
				}
				spec.Events = append(spec.Events, ev)
			}
		}
		t.Run(fmt.Sprintf("metaseed=%d", metaseed), func(t *testing.T) {
			conservationUnder(t, spec, metaseed)
		})
	}
}
