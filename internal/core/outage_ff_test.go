package core

import (
	"reflect"
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/telemetry"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

// dualBlackout is a fault scenario taking both channels down for d,
// starting 2 s into the run.
func dualBlackout(d time.Duration) string {
	return "outage:ch=embb,at=2s,dur=" + d.String() + ";outage:ch=urllc,at=2s,dur=" + d.String()
}

// Tracing only observes: a traced run executes the same frames and the
// same events as an untraced one, so every reported figure — the event
// count included — matches, even through a blackout with every channel
// down.
func TestOutageFastForwardMatchesFullRun(t *testing.T) {
	for _, policy := range []string{PolicyEMBBOnly, PolicyDChannel, PolicyRedundant} {
		cfg := OutageConfig{
			Seed:     1,
			Duration: 64 * time.Second,
			Policy:   policy,
			Fault:    dualBlackout(60 * time.Second),
		}
		plain, err := RunOutage(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tracer = telemetry.New()
		traced, err := RunOutage(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("policy %s: tracing changed results:\nuntraced: %+v\ntraced:   %+v", policy, plain, traced)
		}
	}
}

// A blackout costs one event per frame and nothing more: once every
// channel is down and the queues are full, a frame is refused at entry
// without scheduling anything. Doubling an hour-long dual blackout
// under replication adds exactly one event per added frame, so the
// events beyond the frames themselves are the same at 1 h and 2 h.
func TestOutageFastForwardEventCollapse(t *testing.T) {
	overhead := func(blackout time.Duration) int64 {
		res, err := RunOutage(OutageConfig{
			Seed:     1,
			Duration: blackout + 4*time.Second,
			Policy:   PolicyRedundant,
			Fault:    dualBlackout(blackout),
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Events) - int64(res.Sent)
	}
	if hour, twoHours := overhead(time.Hour), overhead(2*time.Hour); hour != twoHours {
		t.Errorf("events beyond one per frame: %d over a 1 h blackout, %d over 2 h — the blackout costs more than its frames",
			hour, twoHours)
	}
}

// A reliable-mode blackout must not poll: the connection parks on the
// group's wake-on-up list instead of arming the 10 ms entry-drop
// retry timer, so event counts stay bounded by RTO backoff, not by
// blackout length. Doubling the blackout may only add a handful of
// (exponentially backed-off) RTO events, not tens of thousands of
// polls. The world is the outage experiment's, with both channels'
// queues capped at 64 KiB so the blackout fills them and the sender
// meets entry drops.
func TestReliableBlackoutDoesNotPoll(t *testing.T) {
	run := func(blackout time.Duration) uint64 {
		loop := sim.NewLoop(1)
		tr := trace.FixedEMBB()
		s := tr.At(0)
		embb := channel.New(loop, channel.Config{
			Props:      channel.Properties{Name: channel.NameEMBB, BaseRTT: s.RTT, Bandwidth: s.Rate},
			DownTrace:  tr,
			QueueBytes: 64 << 10,
		})
		g := channel.NewGroup(embb, channel.URLLC(loop)) // URLLC's queue is 64 KiB already
		client := transport.NewEndpoint(loop, g, channel.A)
		server := transport.NewEndpoint(loop, g, channel.B)
		server.Listen(func() transport.Config {
			return transport.Config{CC: cc.NewCubic(), Steer: steering.NewRedundant(g)}
		}, func(*transport.Conn) {})
		conn := client.Dial(transport.Config{CC: cc.NewCubic(), Steer: steering.NewRedundant(g)})
		st := conn.NewStream()

		spec, err := fault.ParseSpec(dualBlackout(blackout))
		if err != nil {
			t.Fatal(err)
		}
		if err := fault.Inject(loop, g, spec, nil); err != nil {
			t.Fatal(err)
		}
		// The outage experiment's frame stream: 1200 bytes every 33 ms.
		dur := blackout + 4*time.Second
		frames := sim.NewLane(loop, func() { conn.SendMessage(st, 0, 1200, nil) })
		for at := 33 * time.Millisecond; at < dur; at += 33 * time.Millisecond {
			frames.Push(at)
		}
		loop.RunUntil(dur)
		return loop.Events()
	}
	short, long := run(600*time.Second), run(1200*time.Second)
	// The extra 600 s of blackout unavoidably costs one event per
	// 33 ms frame (~18k; reliable mode queues frames for retransmission).
	// The 10 ms entry-drop retry timer would add another ~60k polls on
	// top; the wake-on-up path must keep the total near the frame floor.
	if extra := int64(long) - int64(short); extra > 25_000 {
		t.Errorf("reliable blackout still polls: doubling the blackout added %d events", extra)
	}
}
