package iot

import (
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/transport"
)

// plantWorld wires a plant and controller over the Wi-Fi TSN pair,
// optionally saturating the best-effort channel with a bulk flow, and
// steering control traffic with the given policy builder.
func plantWorld(t *testing.T, seed int64, dur time.Duration, bulk bool,
	mkSteer func(*channel.Group, channel.Side) steering.Policy) *Plant {
	t.Helper()
	loop := sim.NewLoop(seed)
	tsn, be := channel.WiFiTSN(loop, 2)
	g := channel.NewGroup(tsn, be)
	client := transport.NewEndpoint(loop, g, channel.A)
	server := transport.NewEndpoint(loop, g, channel.B)

	server.Listen(func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: mkSteer(g, channel.B)}
	}, func(c *transport.Conn) {
		// Every accepted conn gets a controller; it ignores non-reading
		// messages, so the bulk flow coexists harmlessly.
		ServeController(loop, c)
	})

	conn := client.Dial(transport.Config{
		Steer: mkSteer(g, channel.A), Unreliable: true, MsgTimeout: 5 * time.Second,
	})
	plant := NewPlant(loop, conn, Config{Duration: dur})

	if bulk {
		// Contention traffic: a loss-tolerant constant-rate blast
		// (e.g. screen mirroring) at ~160 Mbps, beyond the best-effort
		// channel's capacity, keeping its queue pinned full.
		blast := client.Dial(transport.Config{
			Steer: steering.NewSingle(be), Unreliable: true,
		})
		blastStream := blast.NewStream()
		sim.Every(loop, 10*time.Millisecond, func() {
			blast.SendMessage(blastStream, 0, 200_000, nil)
		})
	}

	plant.Start()
	loop.RunUntil(dur + 2*time.Second)
	return plant
}

func TestCleanBestEffortMeetsDeadlines(t *testing.T) {
	p := plantWorld(t, 1, 3*time.Second, false, func(g *channel.Group, _ channel.Side) steering.Policy {
		return steering.NewSingle(g.Get("wifi-be"))
	})
	// The best-effort channel's 1% per-packet loss costs ~2-3% of
	// loops even when idle (no retransmission: stale commands are
	// useless). That residual is the channel's floor.
	if p.MissRate() > 0.06 {
		t.Fatalf("miss rate %.3f on an idle best-effort channel", p.MissRate())
	}
	if p.LoopLatency.Percentile(99) > 40 {
		t.Fatalf("p99 loop latency %.1f ms on idle channel", p.LoopLatency.Percentile(99))
	}
}

func TestBulkTrafficBreaksBestEffortLoops(t *testing.T) {
	p := plantWorld(t, 2, 3*time.Second, true, func(g *channel.Group, _ channel.Side) steering.Policy {
		return steering.NewSingle(g.Get("wifi-be"))
	})
	if p.MissRate() < 0.3 {
		t.Fatalf("miss rate %.3f: a saturated best-effort channel should break loops", p.MissRate())
	}
}

func TestTSNSteeringRestoresDeterminism(t *testing.T) {
	tsnPolicy := func(g *channel.Group, side channel.Side) steering.Policy {
		return steering.NewPriority(g, side, steering.PriorityConfig{
			Wide: "wifi-be", Narrow: "wifi-tsn", AdmitPrio: 0,
		})
	}
	p := plantWorld(t, 3, 3*time.Second, true, tsnPolicy)
	if p.MissRate() > 0.02 {
		t.Fatalf("miss rate %.3f: TSN steering should dodge the bulk traffic", p.MissRate())
	}
	// TSN loop latency: 2×(4ms prop + tx) + 2ms compute ≈ 11-13 ms.
	if p99 := p.LoopLatency.Percentile(99); p99 > 18 {
		t.Fatalf("p99 loop latency %.1f ms over TSN", p99)
	}
}

func TestPlantAccounting(t *testing.T) {
	p := plantWorld(t, 4, time.Second, false, func(g *channel.Group, _ channel.Side) steering.Policy {
		return steering.NewSingle(g.Get("wifi-be"))
	})
	// 1 s / 60 ms = 16 cycles of 4 devices.
	if p.TotalLoops() != 16*4 {
		t.Fatalf("TotalLoops = %d, want 64", p.TotalLoops())
	}
	if p.Completed == 0 {
		t.Fatal("no loops completed")
	}
}

func TestConfigValidation(t *testing.T) {
	loop := sim.NewLoop(1)
	tsn, be := channel.WiFiTSN(loop, 1)
	g := channel.NewGroup(tsn, be)
	client := transport.NewEndpoint(loop, g, channel.A)
	transport.NewEndpoint(loop, g, channel.B)
	conn := client.Dial(transport.Config{Steer: steering.NewSingle(be), Unreliable: true})
	defer func() {
		if recover() == nil {
			t.Error("zero duration should panic")
		}
	}()
	NewPlant(loop, conn, Config{})
}

// A plant's and a controller's cost is their set-up: readings live in
// an array sized from the run, commands in one the controller grows by
// doubling, and every reply runs the controller's one lane callback. Two
// more seconds of cycles used to add a boxed reading, a compute closure
// and a boxed command per loop.
func TestIoTAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	tsn := func(g *channel.Group, side channel.Side) steering.Policy {
		return steering.NewPriority(g, side, steering.PriorityConfig{
			Wide: "wifi-be", Narrow: "wifi-tsn", AdmitPrio: 0,
		})
	}
	run := func(dur time.Duration) float64 {
		return testing.AllocsPerRun(3, func() { plantWorld(t, 1, dur, false, tsn) })
	}
	short, long := run(2*time.Second), run(4*time.Second)
	const loops = 2 * 4 * 1000 / 60 // two more seconds of 60 ms cycles, four devices
	t.Logf("2 s: %.0f objects, 4 s: %.0f", short, long)
	if extra := long - short; extra > loops/8 {
		t.Errorf("two more seconds of cycles (%d loops) allocated %.0f more objects (%.0f -> %.0f), want O(1)",
			loops, extra, short, long)
	}
}
