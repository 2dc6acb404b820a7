package transport

// Robustness tests: acknowledgment loss, delayed-ack timing, handshake
// exhaustion, per-channel loss detection precision, and accounting.

import (
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
)

// lossyBothWays builds a single channel whose both directions drop
// packets (so acknowledgments are lost too).
func lossyBothWays(loop *sim.Loop, loss float64) *channel.Channel {
	return channel.New(loop, channel.Config{
		Props: channel.Properties{
			Name: channel.NameEMBB, BaseRTT: 30 * time.Millisecond,
			Bandwidth: 40e6, LossProb: loss,
		},
		DownTrace: trace.Constant("l", 30*time.Millisecond, 40e6),
	})
}

func TestTransferSurvivesAckLoss(t *testing.T) {
	loop := sim.NewLoop(31)
	ch := lossyBothWays(loop, 0.08)
	g := channel.NewGroup(ch)
	client := NewEndpoint(loop, g, channel.A)
	server := NewEndpoint(loop, g, channel.B)

	var got []Message
	server.Listen(func() Config {
		return Config{CC: cc.NewCubic(), Steer: steering.NewSingle(ch)}
	}, func(c *Conn) {
		c.OnMessage(func(_ *Conn, m Message) { got = append(got, m) })
	})
	c := client.Dial(Config{CC: cc.NewCubic(), Steer: steering.NewSingle(ch)})
	const size = 400_000
	c.SendMessage(c.NewStream(), 0, size, nil)
	loop.RunUntil(2 * time.Minute)

	if len(got) != 1 || got[0].Size != size {
		t.Fatalf("transfer failed under bidirectional loss: %v", got)
	}
	// Cumulative SACK ranges mean lost acks are repaired by later
	// acks; the retransmit count should reflect data loss (~8%), not
	// data+ack loss.
	sent := int(c.Stats().BytesSent / 1456)
	if frac := float64(c.Stats().Retransmits) / float64(sent); frac > 0.25 {
		t.Fatalf("retransmit fraction %.2f implausibly high", frac)
	}
}

func TestDelayedAckTimerFlushes(t *testing.T) {
	// A single packet (below ackEvery=2) must still be acknowledged
	// within maxAckDelay, letting the sender finish.
	w := newWorld(32)
	var got []Message
	w.listen(serverCfg(w), &got)
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	c.SendMessage(c.NewStream(), 0, 500, nil) // one packet
	w.loop.RunUntil(time.Second)

	if len(got) != 1 {
		t.Fatal("message not delivered")
	}
	if c.Stats().BytesAcked != 500 {
		t.Fatalf("BytesAcked = %d, want 500 (delayed ack must fire)", c.Stats().BytesAcked)
	}
	if c.Stats().RTOs != 0 {
		t.Fatal("delayed ack should beat the RTO")
	}
}

func TestHandshakeGivesUpAfterRetries(t *testing.T) {
	// No listener: the client must retry with backoff, then close
	// itself rather than retry forever.
	w := newWorld(34)
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	w.loop.RunUntil(2 * time.Minute)
	if c.Established() {
		t.Fatal("established with no listener")
	}
	if !c.closed {
		t.Fatal("conn should have closed after SYN retries exhausted")
	}
	if w.loop.Pending() != 0 {
		t.Fatalf("%d events still pending after give-up (leak?)", w.loop.Pending())
	}
}

func TestPerChannelLossDetectionIsPrecise(t *testing.T) {
	// URLLC drops 20% of packets; eMBB drops none. With per-channel
	// detection, retransmits should track URLLC's losses only, and
	// everything still arrives.
	loop := sim.NewLoop(35)
	embb := channel.EMBBFixed(loop)
	urllc := channel.New(loop, channel.Config{
		Props: channel.Properties{
			Name: channel.NameURLLC, BaseRTT: 5 * time.Millisecond,
			Bandwidth: 2e6, LossProb: 0.2,
		},
		DownTrace:  trace.Constant(channel.NameURLLC, 5*time.Millisecond, 2e6),
		QueueBytes: 64 << 10,
	})
	g := channel.NewGroup(embb, urllc)
	client := NewEndpoint(loop, g, channel.A)
	server := NewEndpoint(loop, g, channel.B)

	var got []Message
	server.Listen(func() Config {
		return Config{CC: cc.NewCubic(), Steer: steering.NewDChannel(g, channel.B, steering.DChannelConfig{})}
	}, func(c *Conn) {
		c.OnMessage(func(_ *Conn, m Message) { got = append(got, m) })
	})
	c := client.Dial(Config{CC: cc.NewCubic(), Steer: steering.NewDChannel(g, channel.A, steering.DChannelConfig{})})
	st := c.NewStream()
	for i := 0; i < 40; i++ {
		i := i
		loop.At(time.Duration(i)*100*time.Millisecond, func() {
			c.SendMessage(st, 0, 10_000, i)
		})
	}
	loop.RunUntil(30 * time.Second)

	if len(got) != 40 {
		t.Fatalf("delivered %d/40 despite retransmission", len(got))
	}
	urllcDropped := urllc.Stats(channel.A).DroppedRandom
	if urllcDropped == 0 {
		t.Fatal("test needs URLLC losses to mean anything")
	}
	// Retransmits should be within a small factor of actual losses
	// (timer-based recovery can retransmit a round's worth extra).
	if c.Stats().Retransmits > 4*urllcDropped+20 {
		t.Fatalf("retransmits %d far exceed real losses %d (spurious detection?)",
			c.Stats().Retransmits, urllcDropped)
	}
}

func TestStatsMessageCounts(t *testing.T) {
	w := newWorld(36)
	var got []Message
	w.listen(serverCfg(w), &got)
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	st := c.NewStream()
	for i := 0; i < 5; i++ {
		c.SendMessage(st, 0, 2_000, i)
	}
	w.loop.RunUntil(5 * time.Second)
	if c.Stats().MsgsSent != 5 {
		t.Fatalf("MsgsSent = %d", c.Stats().MsgsSent)
	}
	srv := serverConn(t, w)
	if srv.Stats().MsgsDelivered != 5 {
		t.Fatalf("MsgsDelivered = %d", srv.Stats().MsgsDelivered)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d", len(got))
	}
	// IDs are per-connection and sequential from 1.
	for i, m := range got {
		if m.Data != i {
			t.Fatalf("order violated: got[%d].Data = %v", i, m.Data)
		}
	}
}

func TestMessageDataRoundTripsOpaque(t *testing.T) {
	type payload struct{ A, B string }
	w := newWorld(37)
	var got []Message
	w.listen(serverCfg(w), &got)
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	want := &payload{A: "x", B: "y"}
	c.SendMessage(c.NewStream(), 0, 5_000, want)
	w.loop.RunUntil(2 * time.Second)
	if len(got) != 1 {
		t.Fatal("not delivered")
	}
	if got[0].Data != want {
		t.Fatalf("Data pointer did not round-trip: %v", got[0].Data)
	}
}

func TestRTOBackoffGrowsAndResets(t *testing.T) {
	loop := sim.NewLoop(38)
	// A channel that is dead for 3 seconds then recovers.
	tr := &trace.Trace{Name: "dead-then-alive", Samples: []trace.Sample{
		{At: 0, RTT: 20 * time.Millisecond, Rate: 10e6},
		{At: 300 * time.Millisecond, RTT: 20 * time.Millisecond, Rate: 0},
		{At: 3 * time.Second, RTT: 20 * time.Millisecond, Rate: 10e6},
		{At: 5 * time.Minute, RTT: 20 * time.Millisecond, Rate: 10e6},
	}}
	ch := channel.New(loop, channel.Config{
		Props:      channel.Properties{Name: "flappy", BaseRTT: 20 * time.Millisecond, Bandwidth: 10e6},
		DownTrace:  tr,
		QueueBytes: 4 << 10, // tiny: the dead period drops, not queues
	})
	g := channel.NewGroup(ch)
	client := NewEndpoint(loop, g, channel.A)
	server := NewEndpoint(loop, g, channel.B)

	var got []Message
	server.Listen(func() Config {
		return Config{CC: cc.NewCubic(), Steer: steering.NewSingle(ch)}
	}, func(c *Conn) {
		c.OnMessage(func(_ *Conn, m Message) { got = append(got, m) })
	})
	c := client.Dial(Config{CC: cc.NewCubic(), Steer: steering.NewSingle(ch)})
	c.SendMessage(c.NewStream(), 0, 2<<20, nil) // spans the outage
	loop.RunUntil(60 * time.Second)

	if len(got) != 1 {
		t.Fatalf("message not delivered after channel recovery (RTOs=%d)", c.Stats().RTOs)
	}
	if c.Stats().RTOs == 0 {
		t.Fatal("a 2.7 s outage must fire at least one RTO")
	}
	if c.rtoBackoff != 0 {
		t.Fatalf("rtoBackoff = %d after recovery, want 0", c.rtoBackoff)
	}
}

func TestSRTTApproximatesPathRTT(t *testing.T) {
	w := newWorld(39)
	var got []Message
	w.listen(serverCfg(w), &got)
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	st := c.NewStream()
	for i := 0; i < 20; i++ {
		i := i
		w.loop.At(time.Duration(i)*200*time.Millisecond, func() {
			c.SendMessage(st, 0, 3_000, nil)
		})
	}
	w.loop.RunUntil(10 * time.Second)
	// eMBB RTT is 50 ms; the ack may return via URLLC (~27 ms total)
	// and delayed acks add up to 25 ms. SRTT must sit in that band.
	if c.SRTT() < 20*time.Millisecond || c.SRTT() > 110*time.Millisecond {
		t.Fatalf("SRTT %v outside the plausible band", c.SRTT())
	}
}

func TestListenValidation(t *testing.T) {
	w := newWorld(40)
	for name, fn := range map[string]func(){
		"nil factory": func() { w.server.Listen(nil, func(*Conn) {}) },
		"nil accept":  func() { w.server.Listen(func() Config { return Config{} }, nil) },
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
