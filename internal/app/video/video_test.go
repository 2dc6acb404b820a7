package video

import (
	"testing"
	"time"

	"hvc/internal/channel"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

// session wires a sender and receiver across the given channels with
// the given client-side steering policy.
func session(t *testing.T, seed int64, dur time.Duration, mkSteer func(*channel.Group) steering.Policy, chs func(*sim.Loop) []*channel.Channel) (*Sender, *Receiver, *sim.Loop) {
	t.Helper()
	loop := sim.NewLoop(seed)
	g := channel.NewGroup(chs(loop)...)
	client := transport.NewEndpoint(loop, g, channel.A)
	server := transport.NewEndpoint(loop, g, channel.B)

	cfg := Config{Duration: dur}
	recv := NewReceiver(loop, cfg)
	server.Listen(func() transport.Config {
		return transport.Config{Steer: mkSteer(g), Unreliable: true, MsgTimeout: 30 * time.Second}
	}, func(c *transport.Conn) { recv.Attach(c) })

	conn := client.Dial(transport.Config{
		Steer:      mkSteer(g),
		Unreliable: true,
		MsgTimeout: 30 * time.Second,
	})
	snd := NewSender(loop, conn, cfg)
	return snd, recv, loop
}

func cleanChannels(loop *sim.Loop) []*channel.Channel {
	// A wide, fast, clean channel: every frame should arrive quickly.
	return []*channel.Channel{channel.New(loop, channel.Config{
		Props:     channel.Properties{Name: channel.NameEMBB, BaseRTT: 20 * time.Millisecond, Bandwidth: 60e6},
		DownTrace: trace.Constant("clean", 20*time.Millisecond, 60e6),
	})}
}

func embbOnly(g *channel.Group) steering.Policy {
	return steering.NewSingle(g.Get(channel.NameEMBB))
}

func TestLayerSizesMatchBitrates(t *testing.T) {
	loop := sim.NewLoop(1)
	g := channel.NewGroup(cleanChannels(loop)...)
	client := transport.NewEndpoint(loop, g, channel.A)
	transport.NewEndpoint(loop, g, channel.B)
	conn := client.Dial(transport.Config{Steer: embbOnly(g), Unreliable: true})
	s := NewSender(loop, conn, Config{Duration: time.Second})
	// 400 kbps at 30 fps = 1666 B per frame for layer 0.
	if s.sizes[0] != 1666 {
		t.Fatalf("layer0 size = %d, want 1666", s.sizes[0])
	}
	if s.sizes[1] != 17083 || s.sizes[2] != 31250 {
		t.Fatalf("layer sizes = %v", s.sizes)
	}
	if s.FrameCount() != 30 {
		t.Fatalf("FrameCount = %d, want 30", s.FrameCount())
	}
}

func TestCleanPathDecodesEverythingAtTopLayer(t *testing.T) {
	snd, recv, loop := session(t, 1, 2*time.Second, embbOnly, cleanChannels)
	snd.Start()
	loop.RunUntil(5 * time.Second)

	if recv.Decoded != snd.FrameCount() {
		t.Fatalf("decoded %d/%d frames", recv.Decoded, snd.FrameCount())
	}
	if recv.Frozen(snd.FrameCount()) != 0 {
		t.Fatal("no frame should freeze on a clean path")
	}
	// On a clean path every frame should reach layer 2 quality.
	if got := recv.SSIM.Min(); got != SSIMByLayer[2] {
		t.Fatalf("min SSIM = %v, want %v", got, SSIMByLayer[2])
	}
}

func TestDecodeWaitBoundsLatency(t *testing.T) {
	snd, recv, loop := session(t, 2, 2*time.Second, embbOnly, cleanChannels)
	snd.Start()
	loop.RunUntil(5 * time.Second)
	// 12 Mbps over 60 Mbps, 10 ms one-way: each frame ~3.3 ms of
	// serialization + 10 ms propagation; the decode trigger is L0 of
	// the next two frames (≈66 ms later). Latency must sit well under
	// the 60 ms wait + transmission but above propagation.
	p95 := recv.Latency.Percentile(95)
	if p95 < 10 || p95 > 80 {
		t.Fatalf("p95 latency %.1f ms out of plausible band", p95)
	}
}

func TestOutageFreezesOrDelaysFrames(t *testing.T) {
	// A channel that dies at 0.5 s and never recovers: frames sent
	// after the outage must not be decoded.
	outage := func(loop *sim.Loop) []*channel.Channel {
		// Traces repeat, so the outage sample must outlast the test
		// window (the wrap happens far beyond RunUntil below).
		tr := &trace.Trace{Name: "dies", Samples: []trace.Sample{
			{At: 0, RTT: 20 * time.Millisecond, Rate: 60e6},
			{At: 500 * time.Millisecond, RTT: 20 * time.Millisecond, Rate: 0},
			{At: 10 * time.Minute, RTT: 20 * time.Millisecond, Rate: 0},
		}}
		return []*channel.Channel{channel.New(loop, channel.Config{
			Props:     channel.Properties{Name: channel.NameEMBB, BaseRTT: 20 * time.Millisecond, Bandwidth: 60e6},
			DownTrace: tr,
		})}
	}
	snd, recv, loop := session(t, 3, 2*time.Second, embbOnly, outage)
	snd.Start()
	loop.RunUntil(10 * time.Second)
	if recv.Frozen(snd.FrameCount()) == 0 {
		t.Fatal("permanent outage should freeze frames")
	}
	if recv.Decoded == 0 {
		t.Fatal("frames before the outage should decode")
	}
}

func TestSVCDependencyLimitsQuality(t *testing.T) {
	// Drop enough packets that enhancement layers are often missing;
	// the dependency rule must keep SSIM varied but valid, and layer-0
	// frames must still decode.
	lossy := func(loop *sim.Loop) []*channel.Channel {
		return []*channel.Channel{channel.New(loop, channel.Config{
			Props:     channel.Properties{Name: channel.NameEMBB, BaseRTT: 20 * time.Millisecond, Bandwidth: 60e6, LossProb: 0.08},
			DownTrace: trace.Constant("lossy", 20*time.Millisecond, 60e6),
		})}
	}
	snd, recv, loop := session(t, 3, 3*time.Second, embbOnly, lossy)
	snd.Start()
	loop.RunUntil(10 * time.Second)

	if recv.Decoded == 0 {
		t.Fatal("nothing decoded")
	}
	for _, v := range recv.SSIM.Values() {
		valid := false
		for _, s := range SSIMByLayer {
			if v == s {
				valid = true
				break
			}
		}
		if !valid {
			t.Fatalf("SSIM %v not in table", v)
		}
	}
	if recv.SSIM.Min() == recv.SSIM.Max() {
		t.Fatal("8% loss should produce mixed quality levels")
	}
}

func TestPrioritySteeringProtectsLayer0(t *testing.T) {
	// eMBB suffers a mid-stream outage; URLLC carries layer 0 under
	// priority steering, so frames keep decoding (at base quality)
	// with bounded latency, while eMBB-only stalls.
	chs := func(loop *sim.Loop) []*channel.Channel {
		tr := &trace.Trace{Name: "flap", Samples: []trace.Sample{
			{At: 0, RTT: 40 * time.Millisecond, Rate: 60e6},
			{At: 1 * time.Second, RTT: 40 * time.Millisecond, Rate: 0},
			{At: 3 * time.Second, RTT: 40 * time.Millisecond, Rate: 60e6},
		}}
		embb := channel.New(loop, channel.Config{
			Props:     channel.Properties{Name: channel.NameEMBB, BaseRTT: 40 * time.Millisecond, Bandwidth: 60e6},
			DownTrace: tr,
		})
		return []*channel.Channel{embb, channel.URLLC(loop)}
	}
	prio := func(g *channel.Group) steering.Policy {
		return steering.NewPriority(g, channel.A, steering.PriorityConfig{AdmitPrio: 0})
	}
	// Note: both sides use A in mkSteer... the server side's policy
	// side matters only for its (nonexistent) reverse traffic.
	sndP, recvP, loopP := session(t, 5, 4*time.Second, prio, chs)
	sndP.Start()
	loopP.RunUntil(12 * time.Second)

	sndE, recvE, loopE := session(t, 5, 4*time.Second, embbOnly, chs)
	sndE.Start()
	loopE.RunUntil(12 * time.Second)

	if recvP.Decoded <= recvE.Decoded {
		t.Fatalf("priority decoded %d, embb-only %d; priority should decode more during outage",
			recvP.Decoded, recvE.Decoded)
	}
	if recvP.Latency.Percentile(95) >= recvE.Latency.Percentile(95) {
		t.Fatalf("priority p95 %.0f ms should beat embb-only %.0f ms",
			recvP.Latency.Percentile(95), recvE.Latency.Percentile(95))
	}
	// And the cost: priority's SSIM should be no better than
	// eMBB-only's (late high-quality frames vs. on-time low-quality).
	if recvP.SSIM.Mean() > recvE.SSIM.Mean() {
		t.Fatalf("priority SSIM %.3f should not beat embb-only %.3f",
			recvP.SSIM.Mean(), recvE.SSIM.Mean())
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero duration should panic")
		}
	}()
	NewReceiver(sim.NewLoop(1), Config{})
}

// streamAllocs reports what a whole world streaming for dur allocates,
// from construction to drained: everything the sender and the transport
// under it cost, and the receiver's too when receive is set; otherwise
// the server discards the messages.
func streamAllocs(dur time.Duration, receive bool) float64 {
	return testing.AllocsPerRun(3, func() {
		loop := sim.NewLoop(1)
		g := channel.NewGroup(cleanChannels(loop)...)
		client := transport.NewEndpoint(loop, g, channel.A)
		server := transport.NewEndpoint(loop, g, channel.B)
		cfg := Config{Duration: dur}
		accept := func(c *transport.Conn) { c.OnMessage(func(*transport.Conn, transport.Message) {}) }
		if receive {
			accept = NewReceiver(loop, cfg).Attach
		}
		server.Listen(func() transport.Config {
			return transport.Config{Steer: embbOnly(g), Unreliable: true}
		}, accept)
		conn := client.Dial(transport.Config{Steer: embbOnly(g), Unreliable: true})
		NewSender(loop, conn, cfg).Start()
		loop.RunUntil(dur + time.Second)
	})
}

// The sender's cost is the stream's set-up, not its length: one tick
// callback and one payload array serve every frame. A world's arrays
// grow to the stream's peak, which two seconds reach, so two more
// seconds of frames must add next to nothing — they used to add a timer
// closure per frame and a boxed payload and an expiry closure per
// message, seven objects a frame.
func TestVideoSenderAllocBudget(t *testing.T) {
	testStreamAllocBudget(t, false)
}

// The receiver's cost is its stream's set-up too: its frame table, due
// list and distributions are sized from the frame count, and every
// decode timer runs one callback bound at construction. Two more seconds
// used to add a decode-timer closure per frame.
func TestVideoReceiverAllocBudget(t *testing.T) {
	testStreamAllocBudget(t, true)
}

func testStreamAllocBudget(t *testing.T, receive bool) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	short, long := streamAllocs(2*time.Second, receive), streamAllocs(4*time.Second, receive)
	const frames = 60 // the extra two seconds
	t.Logf("2 s: %.0f objects, 4 s: %.0f", short, long)
	if extra := long - short; extra > frames/4 {
		t.Errorf("two more seconds of stream (%d frames) allocated %.0f more objects (%.0f -> %.0f), want O(1)",
			frames, extra, short, long)
	}
}
