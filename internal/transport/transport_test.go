package transport

import (
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
)

// world wires two endpoints across an eMBB+URLLC channel group.
type world struct {
	loop           *sim.Loop
	group          *channel.Group
	client, server *Endpoint
}

func newWorld(seed int64, chs ...*channel.Channel) *world {
	loop := sim.NewLoop(seed)
	if len(chs) == 0 {
		chs = []*channel.Channel{channel.EMBBFixed(loop), channel.URLLC(loop)}
	}
	g := channel.NewGroup(chs...)
	return &world{
		loop:   loop,
		group:  g,
		client: NewEndpoint(loop, g, channel.A),
		server: NewEndpoint(loop, g, channel.B),
	}
}

// embbOnly returns a single-channel policy for the group's eMBB.
func (w *world) embbOnly() steering.Policy {
	return steering.NewSingle(w.group.Get(channel.NameEMBB))
}

func (w *world) dchannel(side channel.Side) steering.Policy {
	return steering.NewDChannel(w.group, side, steering.DChannelConfig{})
}

// listenEcho makes the server deliver received messages to got.
func (w *world) listen(cfg func() Config, got *[]Message) {
	w.server.Listen(cfg, func(c *Conn) {
		c.OnMessage(func(_ *Conn, m Message) { *got = append(*got, m) })
	})
}

func serverCfg(w *world) func() Config {
	return func() Config {
		return Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.B)}
	}
}

func TestHandshakeAndSmallMessage(t *testing.T) {
	w := newWorld(1)
	var got []Message
	w.listen(serverCfg(w), &got)

	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	if c.Established() {
		t.Fatal("reliable conn must not be established before handshake")
	}
	st := c.NewStream()
	c.SendMessage(st, 0, 1000, "hello")
	w.loop.RunUntil(2 * time.Second)

	if !c.Established() {
		t.Fatal("handshake did not complete")
	}
	if len(got) != 1 {
		t.Fatalf("server got %d messages, want 1", len(got))
	}
	m := got[0]
	if m.Size != 1000 || m.Data != "hello" || m.Stream != st {
		t.Fatalf("message = %+v", m)
	}
	// Client data rides eMBB (25 ms one way); the handshake SYN does
	// too, though the server's SYNACK may return via URLLC. Total
	// latency must be at least two eMBB one-way trips.
	if m.Latency() < 50*time.Millisecond {
		t.Fatalf("latency %v implausibly low for eMBB-only data", m.Latency())
	}
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	w := newWorld(2)
	var got []Message
	w.listen(serverCfg(w), &got)

	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	const size = 500_000
	c.SendMessage(c.NewStream(), 0, size, nil)
	w.loop.RunUntil(10 * time.Second)

	if len(got) != 1 || got[0].Size != size {
		t.Fatalf("got %v", got)
	}
	srv := serverConn(t, w)
	if srv.Stats().BytesReceived != size {
		t.Fatalf("BytesReceived = %d, want %d", srv.Stats().BytesReceived, size)
	}
}

// serverConn digs out the single server-side connection.
func serverConn(t *testing.T, w *world) *Conn {
	t.Helper()
	for _, c := range w.server.conns {
		return c
	}
	t.Fatal("no server conn")
	return nil
}

func TestMultipleMessagesPriorityOrder(t *testing.T) {
	w := newWorld(3)
	var got []Message
	w.listen(serverCfg(w), &got)

	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	st := c.NewStream()
	// Queue a bulk message, then a high-priority one; the scheduler
	// must finish the priority message first.
	c.SendMessage(st, 5, 200_000, "bulk")
	c.SendMessage(st, 0, 5_000, "urgent")
	w.loop.RunUntil(10 * time.Second)

	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(got))
	}
	if got[0].Data != "urgent" || got[1].Data != "bulk" {
		t.Fatalf("order = [%v %v], want urgent first", got[0].Data, got[1].Data)
	}
}

func TestReliableDeliveryOverLossyChannel(t *testing.T) {
	loop := sim.NewLoop(4)
	lossy := channel.New(loop, channel.Config{
		Props:     channel.Properties{Name: channel.NameEMBB, BaseRTT: 50 * time.Millisecond, Bandwidth: 60e6, LossProb: 0.05},
		DownTrace: trace.Constant("e", 50*time.Millisecond, 60e6),
	})
	w := &world{loop: loop, group: channel.NewGroup(lossy)}
	w.client = NewEndpoint(loop, w.group, channel.A)
	w.server = NewEndpoint(loop, w.group, channel.B)

	var got []Message
	w.server.Listen(func() Config {
		return Config{CC: cc.NewCubic(), Steer: steering.NewSingle(lossy)}
	}, func(c *Conn) {
		c.OnMessage(func(_ *Conn, m Message) { got = append(got, m) })
	})

	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: steering.NewSingle(lossy)})
	const size = 300_000
	c.SendMessage(c.NewStream(), 0, size, nil)
	w.loop.RunUntil(60 * time.Second)

	if len(got) != 1 || got[0].Size != size {
		t.Fatalf("message not delivered over 5%% loss: %v", got)
	}
	if c.Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions over a lossy channel")
	}
}

func TestNoSpuriousRetransmitsUnderSteering(t *testing.T) {
	// Cross-channel reordering is constant under DChannel steering;
	// per-channel loss detection must not misread it as loss.
	w := newWorld(5)
	var got []Message
	w.listen(serverCfg(w), &got)

	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.A)})
	st := c.NewStream()
	// App-limited load: 50 messages of 20 kB every 100 ms — well under
	// capacity, so no queue ever overflows.
	for i := 0; i < 50; i++ {
		i := i
		w.loop.At(time.Duration(i)*100*time.Millisecond, func() {
			c.SendMessage(st, 0, 20_000, i)
		})
	}
	w.loop.RunUntil(20 * time.Second)

	if len(got) != 50 {
		t.Fatalf("delivered %d/50 messages", len(got))
	}
	if r := c.Stats().Retransmits; r > 0 {
		t.Fatalf("%d spurious retransmits under reordering", r)
	}
	if rto := c.Stats().RTOs; rto > 0 {
		t.Fatalf("%d spurious RTOs", rto)
	}
}

func TestRTTSampleHookSeesBothChannels(t *testing.T) {
	w := newWorld(6)
	var got []Message
	w.listen(serverCfg(w), &got)

	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.A)})
	chans := map[string]int{}
	c.OnRTTSample(func(_, rtt time.Duration, ch string) {
		if rtt <= 0 {
			t.Errorf("nonpositive RTT sample %v", rtt)
		}
		chans[ch]++
	})
	st := c.NewStream()
	for i := 0; i < 30; i++ {
		i := i
		w.loop.At(time.Duration(i)*50*time.Millisecond, func() {
			c.SendMessage(st, 0, 30_000, nil)
		})
	}
	w.loop.RunUntil(10 * time.Second)
	if chans[channel.NameEMBB] == 0 || chans[channel.NameURLLC] == 0 {
		t.Fatalf("want RTT samples from both channels, got %v", chans)
	}
	if c.SRTT() <= 0 {
		t.Fatal("SRTT not established")
	}
}

func TestUnreliableDeliveryNoAcks(t *testing.T) {
	w := newWorld(7)
	var got []Message
	w.listen(func() Config {
		return Config{Steer: w.embbOnly()}
	}, &got)

	c := w.client.Dial(Config{Steer: w.embbOnly(), Unreliable: true})
	if !c.Established() {
		t.Fatal("unreliable conns start established")
	}
	c.SendMessage(c.NewStream(), 0, 10_000, "frame")
	w.loop.RunUntil(time.Second)

	if len(got) != 1 || got[0].Data != "frame" {
		t.Fatalf("got %v", got)
	}
	// No acks must flow back to the client.
	urllcUp := w.group.Get(channel.NameURLLC).Stats(channel.B)
	embbUp := w.group.Get(channel.NameEMBB).Stats(channel.B)
	if urllcUp.Sent+embbUp.Sent != 0 {
		t.Fatalf("unreliable flow generated %d reverse packets", urllcUp.Sent+embbUp.Sent)
	}
}

func TestUnreliableIncompleteMessageExpires(t *testing.T) {
	loop := sim.NewLoop(8)
	lossy := channel.New(loop, channel.Config{
		Props:     channel.Properties{Name: channel.NameEMBB, BaseRTT: 20 * time.Millisecond, Bandwidth: 50e6, LossProb: 0.3},
		DownTrace: trace.Constant("e", 20*time.Millisecond, 50e6),
	})
	g := channel.NewGroup(lossy)
	client := NewEndpoint(loop, g, channel.A)
	server := NewEndpoint(loop, g, channel.B)

	var got []Message
	var srv *Conn
	server.Listen(func() Config {
		return Config{Steer: steering.NewSingle(lossy), MsgTimeout: 200 * time.Millisecond}
	}, func(c *Conn) {
		srv = c
		c.OnMessage(func(_ *Conn, m Message) { got = append(got, m) })
	})

	c := client.Dial(Config{Steer: steering.NewSingle(lossy), Unreliable: true})
	st := c.NewStream()
	for i := 0; i < 40; i++ {
		i := i
		loop.At(time.Duration(i)*30*time.Millisecond, func() {
			c.SendMessage(st, 0, 30_000, i) // ~21 packets each; 30% loss dooms most
		})
	}
	loop.RunUntil(5 * time.Second)

	if srv == nil {
		t.Fatal("server conn never created")
	}
	stats := srv.Stats()
	if stats.MsgsExpired == 0 {
		t.Fatalf("expected expired messages under 30%% loss; stats=%+v", stats)
	}
	if len(got)+stats.MsgsExpired == 0 {
		t.Fatal("nothing happened at all")
	}
	// Reassembly state must not leak.
	if len(srv.rcvMsgs) != 0 {
		t.Fatalf("%d messages still pending reassembly after expiry window", len(srv.rcvMsgs))
	}
}

func TestRedundantSteeringDeduplicates(t *testing.T) {
	loop := sim.NewLoop(9)
	b5, b6 := channel.WiFiMLO(loop)
	g := channel.NewGroup(b5, b6)
	client := NewEndpoint(loop, g, channel.A)
	server := NewEndpoint(loop, g, channel.B)

	var got []Message
	var srv *Conn
	server.Listen(func() Config {
		return Config{CC: cc.NewCubic(), Steer: steering.NewRedundant(g)}
	}, func(c *Conn) {
		srv = c
		c.OnMessage(func(_ *Conn, m Message) { got = append(got, m) })
	})

	c := client.Dial(Config{CC: cc.NewCubic(), Steer: steering.NewRedundant(g)})
	const size = 50_000
	c.SendMessage(c.NewStream(), 0, size, nil)
	loop.RunUntil(5 * time.Second)

	if len(got) != 1 || got[0].Size != size {
		t.Fatalf("got %v", got)
	}
	if rcvd := srv.Stats().BytesReceived; rcvd != size {
		t.Fatalf("BytesReceived = %d, want %d (duplicates must not count)", rcvd, size)
	}
}

func TestTwoConnsDemux(t *testing.T) {
	w := newWorld(10)
	byFlow := map[packet.FlowID][]Message{}
	w.server.Listen(serverCfg(w), func(c *Conn) {
		c.OnMessage(func(cn *Conn, m Message) {
			byFlow[cn.Flow()] = append(byFlow[cn.Flow()], m)
		})
	})

	c1 := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	c2 := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly(), FlowPriority: packet.PriorityBulk})
	if c1.Flow() == c2.Flow() {
		t.Fatal("flow IDs collide")
	}
	c1.SendMessage(c1.NewStream(), 0, 5000, "one")
	c2.SendMessage(c2.NewStream(), 0, 5000, "two")
	w.loop.RunUntil(2 * time.Second)

	if len(byFlow[c1.Flow()]) != 1 || len(byFlow[c2.Flow()]) != 1 {
		t.Fatalf("demux broken: %v", byFlow)
	}
}

func TestBulkThroughputApproachesLinkRate(t *testing.T) {
	w := newWorld(11)
	var got []Message
	w.listen(serverCfg(w), &got)

	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	// 60 Mbps for 10 s ≈ 75 MB; offer more so the flow never idles.
	const size = 100 << 20
	c.SendMessage(c.NewStream(), 0, size, nil)
	w.loop.RunUntil(10 * time.Second)

	srv := serverConn(t, w)
	rcvd := srv.Stats().BytesReceived
	// ≥70% of link capacity over the run (CUBIC ramp + queue losses).
	if float64(rcvd)*8/10 < 0.7*60e6 {
		t.Fatalf("bulk throughput %.1f Mbps, want ≥ 42", float64(rcvd)*8/10e6)
	}
}

func TestCloseStopsActivityAndForgets(t *testing.T) {
	w := newWorld(12)
	var got []Message
	w.listen(serverCfg(w), &got)

	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	c.SendMessage(c.NewStream(), 0, 100_000, nil)
	w.loop.RunUntil(100 * time.Millisecond)
	c.Close()
	c.Close() // idempotent
	if _, ok := w.client.conns[c.Flow()]; ok {
		t.Fatal("endpoint still knows closed conn")
	}
	defer func() {
		if recover() == nil {
			t.Error("SendMessage after Close should panic")
		}
	}()
	c.SendMessage(1, 0, 10, nil)
}

func TestSendMessagePanicsOnBadSize(t *testing.T) {
	w := newWorld(13)
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	defer func() {
		if recover() == nil {
			t.Error("size 0 should panic")
		}
	}()
	c.SendMessage(1, 0, 0, nil)
}

func TestConfigValidation(t *testing.T) {
	w := newWorld(14)
	for name, cfg := range map[string]Config{
		"nil steer": {CC: cc.NewCubic()},
		"nil cc":    {Steer: w.embbOnly()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			w.client.Dial(cfg)
		}()
	}
}

func TestStrayPacketsDropped(t *testing.T) {
	w := newWorld(15)
	// No listener installed: a dial's SYN goes nowhere; the client
	// retries then gives up without crashing.
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	c.SendMessage(c.NewStream(), 0, 1000, nil)
	w.loop.RunUntil(60 * time.Second)
	if c.Established() {
		t.Fatal("established without a listener?")
	}
}

func TestMessageLatencyUsesQueueTime(t *testing.T) {
	w := newWorld(16)
	var got []Message
	w.listen(serverCfg(w), &got)
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.embbOnly()})
	w.loop.At(time.Second, func() { c.SendMessage(c.NewStream(), 0, 1000, nil) })
	w.loop.RunUntil(5 * time.Second)
	if len(got) != 1 {
		t.Fatal("no message")
	}
	if got[0].SentAt != time.Second {
		t.Fatalf("SentAt = %v, want 1s", got[0].SentAt)
	}
	if got[0].DeliveredAt <= got[0].SentAt {
		t.Fatal("DeliveredAt must follow SentAt")
	}
}

func TestDeterministicTransfer(t *testing.T) {
	run := func() (time.Duration, Stats) {
		w := newWorld(99)
		var got []Message
		w.listen(serverCfg(w), &got)
		c := w.client.Dial(Config{CC: cc.NewBBR(), Steer: w.dchannel(channel.A)})
		c.SendMessage(c.NewStream(), 0, 2<<20, nil)
		w.loop.RunUntil(20 * time.Second)
		if len(got) != 1 {
			t.Fatal("transfer incomplete")
		}
		return got[0].DeliveredAt, c.Stats()
	}
	at1, st1 := run()
	at2, st2 := run()
	if at1 != at2 || st1 != st2 {
		t.Fatalf("nondeterministic: %v/%+v vs %v/%+v", at1, st1, at2, st2)
	}
}
