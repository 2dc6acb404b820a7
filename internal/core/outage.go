package core

import (
	"fmt"
	"time"

	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/metrics"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/telemetry"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

// OutageConfig parameterizes the reliability experiment: a periodic
// real-time frame stream over eMBB+URLLC while a fault scenario (see
// internal/fault) injects outages into the channels, comparing how
// steering policies ride through a blackout.
type OutageConfig struct {
	Seed     int64
	Duration time.Duration
	// Policy names the steering policy (see NewPolicy); empty means
	// PolicyEMBBOnly, the no-failover baseline.
	Policy string
	// Fault is the scenario in the internal/fault grammar; empty or
	// "none"... note that unlike elsewhere, empty here means the
	// *default* schedule — two eMBB blackouts scaled to Duration
	// (fault.Default) — because an outage experiment without an outage
	// measures nothing. Pass an explicit scenario to override it.
	Fault string
	// Reliable switches the frame stream from best-effort to reliable
	// delivery: frames lost to a blackout are retransmitted instead of
	// dropped, trading delivery rate 1.0 for a latency tail. This is
	// the regime where stale fresh-seq retransmissions race their
	// recovered originals, so the chaos harness leans on it.
	Reliable bool
	// QueueBytes caps each channel direction's entry queue; 0 keeps
	// the channels' defaults. Benchmarks use a small cap so a blackout
	// saturates the queues quickly, which is what arms the quiet-time
	// fast-forward.
	QueueBytes int
	// Tracer receives cross-layer telemetry (fault windows included);
	// nil disables tracing.
	Tracer *telemetry.Tracer
}

// OutageResult reports one policy's ride through the fault schedule.
type OutageResult struct {
	Policy string
	// Fault is the canonical form of the injected scenario.
	Fault string
	// Sent and Delivered count frames; the stream is unreliable, so a
	// frame lost to the blackout stays lost.
	Sent, Delivered int
	// Stall is the longest delivery gap the receiver observed — the
	// user-visible freeze an outage causes. It includes the tail gap to
	// the end of the run, so a flow that never recovers scores the
	// remainder of the run as stall.
	Stall time.Duration
	// Delay is the frame-latency distribution in ms.
	Delay metrics.Distribution
	// Events counts the loop events the run executed — the quiet-time
	// fast-forward's figure of merit (cancelled frame timers never
	// fire, so an hour-long blackout costs ~zero events).
	Events uint64
}

// DeliveryRate is the fraction of sent frames delivered.
func (r OutageResult) DeliveryRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Sent)
}

// RunOutage executes the reliability experiment: ~30 frames/s of
// 1200-byte unreliable messages from client to server over the fixed
// eMBB channel plus URLLC, with cfg.Fault injected. Frames ride the
// policy under test on both sides.
func RunOutage(cfg OutageConfig) (OutageResult, error) {
	if cfg.Duration <= 0 {
		return OutageResult{}, fmt.Errorf("core: outage duration must be positive")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyEMBBOnly
	}
	if !ValidPolicy(cfg.Policy) {
		return OutageResult{}, fmt.Errorf("core: unknown steering policy %q", cfg.Policy)
	}
	spec, err := fault.ParseSpec(cfg.Fault)
	if err != nil {
		return OutageResult{}, err
	}
	if spec.Empty() {
		spec = fault.Default(channel.NameEMBB, cfg.Duration)
	}

	loop := sim.NewLoop(cfg.Seed)
	g := cellularQueued(loop, trace.Constant("embb-fixed", 50*time.Millisecond, 60e6), cfg.QueueBytes)
	client := transport.NewEndpoint(loop, g, channel.A)
	server := transport.NewEndpoint(loop, g, channel.B)

	cfg.Tracer.BeginRun(fmt.Sprintf("outage policy=%s fault=%s seed=%d", cfg.Policy, spec, cfg.Seed))
	cfg.Tracer.BindClock(loop.Now)
	g.SetTracer(cfg.Tracer)
	client.SetTracer(cfg.Tracer)
	server.SetTracer(cfg.Tracer)

	if err := fault.Inject(loop, g, spec, cfg.Tracer); err != nil {
		return OutageResult{}, err
	}

	res := OutageResult{Policy: cfg.Policy, Fault: spec.String()}
	var lastDelivery, maxGap time.Duration
	server.Listen(func() transport.Config {
		tc := transport.Config{
			Steer: mustPolicy(cfg.Policy, g, channel.B), Unreliable: true,
			MsgTimeout: 10 * time.Second,
		}
		if cfg.Reliable {
			ccSrv, _ := NewCC("cubic")
			tc.CC, tc.Unreliable, tc.MsgTimeout = ccSrv, false, 0
		}
		return tc
	}, func(c *transport.Conn) {
		c.OnMessage(func(_ *transport.Conn, m transport.Message) {
			res.Delivered++
			res.Delay.AddDuration(m.Latency())
			if gap := m.DeliveredAt - lastDelivery; gap > maxGap {
				maxGap = gap
			}
			lastDelivery = m.DeliveredAt
		})
	})

	steer := steering.NewCounter(mustPolicy(cfg.Policy, g, channel.A))
	tc := transport.Config{Steer: steer, Unreliable: true}
	if cfg.Reliable {
		ccCli, _ := NewCC("cubic")
		tc.CC, tc.Unreliable = ccCli, false
	}
	conn := client.Dial(tc)
	st := conn.NewStream()

	// ~30 fps of 1200-byte frames for the whole run. Each frame gets
	// its own pre-scheduled timer (so event sequence numbers — and
	// with them every timestamp tie-break — are identical whether or
	// not the fast-forward below fires), and the frame callback may
	// cancel upcoming timers wholesale when the run is provably quiet.
	const frameEvery = 33 * time.Millisecond
	const frameBytes = 1200
	// A frame rides a single fragment (frameBytes <= packet.MaxPayload),
	// so this is the exact wire size a channel must accept.
	const frameWire = frameBytes + packet.HeaderBytes
	canSkip := !cfg.Tracer.Enabled() && !cfg.Reliable
	nFrames := int((cfg.Duration - 1) / frameEvery)
	frameTimers := make([]sim.Timer, nFrames)
	for i := range frameTimers {
		i := i
		id := res.Sent
		res.Sent++
		frameTimers[i] = loop.At(time.Duration(i+1)*frameEvery, func() {
			if canSkip {
				if wake, quiet := quietUntil(loop, g, frameWire); quiet {
					// Provably blocked until wake: this frame and every
					// one before the recovery would be dropped at
					// channel entry with no observable effect, so skip
					// their events instead of executing them.
					for j := i + 1; j < nFrames; j++ {
						if time.Duration(j+1)*frameEvery >= wake {
							break
						}
						frameTimers[j].Stop()
					}
					return
				}
			}
			conn.SendMessage(st, 0, frameBytes, id)
		})
	}

	loop.RunUntil(cfg.Duration)
	transport.CheckLedger(client, server)
	res.Events = loop.Events()

	// The tail gap counts: a flow still stalled at the end of the run
	// scores the remainder as freeze.
	if gap := cfg.Duration - lastDelivery; gap > maxGap {
		maxGap = gap
	}
	res.Stall = maxGap
	return res, nil
}

// quietUntil reports whether an unreliable frame send is provably a
// no-op until some future instant, and when that instant is. It holds
// when every channel is down with a known recovery time, nothing is
// mid-serialization toward the server, and no A→B queue can accept a
// frame. Down links never start serializing, so queued bytes are
// frozen and the headroom deficit persists: every frame until the
// earliest recovery would be dropped at channel entry, mutating
// nothing the experiment observes. (Steering state is safe too: the
// policies the outage experiment offers touch only per-decision
// scratch, and cost-aware spending requires an up channel.)
func quietUntil(loop *sim.Loop, g *channel.Group, wire int) (time.Duration, bool) {
	now := loop.Now()
	wake := time.Duration(1<<63 - 1)
	for _, ch := range g.All() {
		if !ch.Down() {
			return 0, false
		}
		until := ch.DownUntil()
		if until <= now {
			return 0, false // no recovery hint: never skip
		}
		if ch.Transmitting(channel.A) {
			return 0, false // a finishing packet could free headroom
		}
		if ch.Headroom(channel.A) >= wire {
			return 0, false // a frame would be queued, not dropped
		}
		if until < wake {
			wake = until
		}
	}
	return wake, true
}

// cellularQueued is the outage experiment's channel group: Cellular
// with an optional per-direction entry-queue cap on both channels
// (0 keeps the defaults).
func cellularQueued(loop *sim.Loop, embb *trace.Trace, queueBytes int) *channel.Group {
	if queueBytes == 0 {
		return Cellular(loop, embb)
	}
	s := embb.At(0)
	e := channel.New(loop, channel.Config{
		Props: channel.Properties{
			Name:      channel.NameEMBB,
			BaseRTT:   s.RTT,
			Bandwidth: s.Rate,
		},
		DownTrace:  embb,
		QueueBytes: queueBytes,
	})
	u := channel.New(loop, channel.Config{
		Props: channel.Properties{
			Name:      channel.NameURLLC,
			BaseRTT:   5 * time.Millisecond,
			Bandwidth: 2e6,
			Reliable:  true,
		},
		DownTrace:  trace.URLLC(),
		QueueBytes: queueBytes,
	})
	return channel.NewGroup(e, u)
}
