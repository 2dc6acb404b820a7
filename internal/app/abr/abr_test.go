package abr

import (
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

// session wires a client and origin over the given channel builder.
func session(t *testing.T, seed int64, cfg Config, chs func(*sim.Loop) []*channel.Channel) (*Client, *sim.Loop) {
	t.Helper()
	loop := sim.NewLoop(seed)
	g := channel.NewGroup(chs(loop)...)
	clientEP := transport.NewEndpoint(loop, g, channel.A)
	serverEP := transport.NewEndpoint(loop, g, channel.B)

	pol := func() steering.Policy { return steering.NewSingle(g.All()[0]) }
	Serve(serverEP, func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: pol()}
	})
	conn := clientEP.Dial(transport.Config{CC: cc.NewCubic(), Steer: pol()})
	return NewClient(loop, conn, cfg), loop
}

func fastChannel(loop *sim.Loop) []*channel.Channel {
	return []*channel.Channel{channel.New(loop, channel.Config{
		Props:     channel.Properties{Name: "fast", BaseRTT: 20 * time.Millisecond, Bandwidth: 50e6},
		DownTrace: trace.Constant("fast", 20*time.Millisecond, 50e6),
	})}
}

func slowChannel(loop *sim.Loop) []*channel.Channel {
	// 800 kbps: only the lowest ladder rung (350 kbps) is sustainable.
	return []*channel.Channel{channel.New(loop, channel.Config{
		Props:     channel.Properties{Name: "slow", BaseRTT: 40 * time.Millisecond, Bandwidth: 800e3},
		DownTrace: trace.Constant("slow", 40*time.Millisecond, 800e3),
	})}
}

func TestFastChannelClimbsLadderNoStalls(t *testing.T) {
	c, loop := session(t, 1, Config{Duration: 30 * time.Second}, fastChannel)
	c.Start()
	loop.RunUntil(2 * time.Minute)
	r := c.Result()

	if r.Chunks != c.TotalChunks() {
		t.Fatalf("downloaded %d/%d chunks", r.Chunks, c.TotalChunks())
	}
	if r.RebufferEvents != 0 || r.RebufferTime != 0 {
		t.Fatalf("fast channel should never stall: %+v", r)
	}
	if r.MeanBitrate < 3e6 {
		t.Fatalf("mean bitrate %.0f bps: 50 Mbps channel should climb the ladder", r.MeanBitrate)
	}
	if r.Played < 29*time.Second {
		t.Fatalf("played only %v of 30s", r.Played)
	}
	if r.StartupDelay <= 0 || r.StartupDelay > time.Second {
		t.Fatalf("startup delay %v implausible", r.StartupDelay)
	}
}

func TestSlowChannelStaysLowAndMayStall(t *testing.T) {
	c, loop := session(t, 2, Config{Duration: 20 * time.Second}, slowChannel)
	c.Start()
	loop.RunUntil(5 * time.Minute)
	r := c.Result()

	if r.Chunks == 0 {
		t.Fatal("nothing downloaded")
	}
	// BBA has no rate estimator, so on an 800 kbps link it oscillates
	// between the two lowest rungs; the mean must stay far below the
	// ladder's middle.
	if r.MeanBitrate > 1.5e6 {
		t.Fatalf("mean bitrate %.0f bps too high for the channel", r.MeanBitrate)
	}
	if r.Switches == 0 {
		t.Fatal("BBA should oscillate rungs on a borderline channel")
	}
}

func TestOutageCausesRebuffering(t *testing.T) {
	outage := func(loop *sim.Loop) []*channel.Channel {
		tr := &trace.Trace{Name: "o", Samples: []trace.Sample{
			{At: 0, RTT: 30 * time.Millisecond, Rate: 20e6},
			{At: 5 * time.Second, RTT: 30 * time.Millisecond, Rate: 0},
			{At: 17 * time.Second, RTT: 30 * time.Millisecond, Rate: 20e6},
			{At: 10 * time.Minute, RTT: 30 * time.Millisecond, Rate: 20e6},
		}}
		return []*channel.Channel{channel.New(loop, channel.Config{
			Props:     channel.Properties{Name: "flaky", BaseRTT: 30 * time.Millisecond, Bandwidth: 20e6},
			DownTrace: tr,
		})}
	}
	c, loop := session(t, 3, Config{Duration: 30 * time.Second}, outage)
	c.Start()
	loop.RunUntil(3 * time.Minute)
	r := c.Result()

	// A 12 s outage against an 8 s buffer cap must stall playback.
	if r.RebufferEvents == 0 || r.RebufferTime < time.Second {
		t.Fatalf("expected rebuffering across the outage: %+v", r)
	}
}

func TestBitratePickerThresholds(t *testing.T) {
	c, _ := session(t, 4, Config{Duration: 10 * time.Second}, fastChannel)
	c.buffer = 0
	if got := c.pickBitrate(); got != DefaultLadder[0] {
		t.Fatalf("empty buffer rate %v, want lowest rung", got)
	}
	c.buffer = 2 * time.Second // exactly the reservoir
	if got := c.pickBitrate(); got != DefaultLadder[0] {
		t.Fatalf("reservoir rate %v, want lowest rung", got)
	}
	c.buffer = 6 * time.Second // reservoir+cushion
	if got := c.pickBitrate(); got != DefaultLadder[len(DefaultLadder)-1] {
		t.Fatalf("full cushion rate %v, want top rung", got)
	}
	c.buffer = 4 * time.Second // halfway up the cushion
	got := c.pickBitrate()
	if got == DefaultLadder[0] || got == DefaultLadder[len(DefaultLadder)-1] {
		t.Fatalf("mid-cushion rate %v should be intermediate", got)
	}
}

func TestBufferCapThrottlesFetching(t *testing.T) {
	c, loop := session(t, 5, Config{Duration: 60 * time.Second}, fastChannel)
	c.Start()
	// Early in the session the buffer must never exceed the cap plus
	// one chunk.
	for i := 1; i <= 40; i++ {
		loop.RunUntil(time.Duration(i) * 500 * time.Millisecond)
		if c.buffer > maxBuffer+chunkDuration {
			t.Fatalf("buffer %v exceeded cap %v", c.buffer, maxBuffer)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	loop := sim.NewLoop(1)
	g := channel.NewGroup(fastChannel(loop)...)
	clientEP := transport.NewEndpoint(loop, g, channel.A)
	transport.NewEndpoint(loop, g, channel.B)
	conn := clientEP.Dial(transport.Config{CC: cc.NewCubic(), Steer: steering.NewSingle(g.All()[0])})
	for name, cfg := range map[string]Config{
		"no duration": {},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			NewClient(loop, conn, cfg)
		}()
	}
}

func TestDeterministicSession(t *testing.T) {
	run := func() Result {
		c, loop := session(t, 9, Config{Duration: 20 * time.Second}, fastChannel)
		c.Start()
		loop.RunUntil(time.Minute)
		return c.Result()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
