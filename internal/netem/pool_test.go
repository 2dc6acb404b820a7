package netem_test

import (
	"testing"
	"time"

	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/trace"
)

// A link in a channel group hands every packet it loses in flight back
// to the group's pool, once, whichever process dropped it — the link's
// i.i.d. LossProb draw or an installed loss process (a fault's burst) —
// and never a packet it delivered. What the pool has handed out and not
// taken back is then exactly what the sinks kept.
func TestDroppedPacketsReturnToPool(t *testing.T) {
	loop := sim.NewLoop(7)
	ch := channel.New(loop, channel.Config{
		Props:     channel.Properties{Name: "lossy", BaseRTT: 10 * time.Millisecond, Bandwidth: 100e6, LossProb: 0.05},
		DownTrace: trace.Constant("lossy", 10*time.Millisecond, 100e6),
	})
	g := channel.NewGroup(ch)
	pool := g.Pool()

	bursts := 0
	delivered := map[*packet.Packet]bool{}
	for _, side := range []channel.Side{channel.A, channel.B} {
		n := 0
		ch.SetLossFn(side, func() bool { // three in every 16 packets
			n++
			if n%16 < 3 {
				bursts++
				return true
			}
			return false
		})
		ch.SetSink(side, func(p *packet.Packet) { delivered[p] = true })
	}

	const perSide = 2000
	sent := map[*packet.Packet]bool{}
	for i := 0; i < perSide; i++ {
		for _, side := range []channel.Side{channel.A, channel.B} {
			p := pool.Get()
			p.ID, p.Size = uint64(len(sent)+1), 500
			if !ch.Send(side, p) {
				t.Fatalf("packet %d refused at entry", p.ID)
			}
			sent[p] = true
		}
	}
	loop.Run()

	dropped := ch.Stats(channel.A).DroppedRandom + ch.Stats(channel.B).DroppedRandom
	if bursts == 0 || dropped <= bursts {
		t.Fatalf("degenerate run: %d drops of which %d bursts, want both kinds", dropped, bursts)
	}
	if live := pool.Live(); live != len(delivered) {
		t.Errorf("the pool has %d packets out, the sinks hold %d", live, len(delivered))
	}
	// The pool holds the lost packets and nothing else: drain it until it
	// hands out a packet this test never sent, a fresh one.
	back := map[*packet.Packet]int{}
	for {
		p := pool.Get()
		if !sent[p] {
			break
		}
		back[p]++
	}
	if len(back) != dropped {
		t.Errorf("%d distinct packets came back to the pool, the links dropped %d in flight (%d in bursts)", len(back), dropped, bursts)
	}
	for p, n := range back {
		if n != 1 {
			t.Errorf("packet %d came back %d times", p.ID, n)
		}
		if delivered[p] {
			t.Errorf("packet %d was both delivered and pooled", p.ID)
		}
	}
	if len(back)+len(delivered) != len(sent) {
		t.Errorf("%d pooled + %d delivered != %d sent", len(back), len(delivered), len(sent))
	}
}
