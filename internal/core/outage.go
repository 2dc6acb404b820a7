package core

import (
	"cmp"
	"fmt"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/metrics"
	"hvc/internal/sim"
	"hvc/internal/telemetry"
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
	// Tracer receives cross-layer telemetry (fault windows included);
	// nil disables tracing.
	Tracer *telemetry.Tracer
}

// OutageResult reports one policy's ride through the fault schedule.
type OutageResult struct {
	Policy string
	// Fault is the canonical form of the injected scenario.
	Fault string
	// Sent and Delivered count frames. Unless Reliable was set, a frame
	// lost to the blackout stays lost.
	Sent, Delivered int
	// Stall is the longest delivery gap the receiver observed — the
	// user-visible freeze an outage causes. It includes the tail gap to
	// the end of the run, so a flow that never recovers scores the
	// remainder of the run as stall.
	Stall time.Duration
	// Delay is the frame-latency distribution in ms.
	Delay metrics.Distribution
	// Events counts the loop events the run executed, one per frame
	// included: the run's simulation cost, and the same whether or not
	// it was traced.
	Events uint64
}

// DeliveryRate is the fraction of sent frames delivered.
func (r OutageResult) DeliveryRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Sent)
}

// OutageFault is the scenario RunOutage injects for scenario, written
// in the internal/fault grammar, over a run of dur: empty or "none"
// selects the default schedule, two eMBB blackouts scaled to dur
// (fault.Default). A scenario that names a channel other than eMBB and
// URLLC, the outage world's two, is an error.
func OutageFault(scenario string, dur time.Duration) (fault.Spec, error) {
	spec, err := fault.ParseSpec(scenario)
	if err != nil {
		return fault.Spec{}, err
	}
	if spec.Empty() {
		return fault.Default(channel.NameEMBB, dur), nil
	}
	for _, ev := range spec.Events {
		if ev.Channel != channel.NameEMBB && ev.Channel != channel.NameURLLC {
			return fault.Spec{}, fmt.Errorf("fault names channel %q; the outage experiment runs %s+%s",
				ev.Channel, channel.NameEMBB, channel.NameURLLC)
		}
	}
	return spec, nil
}

// RunOutage executes the reliability experiment: ~30 frames/s of
// 1200-byte unreliable messages from client to server over the fixed
// eMBB channel plus URLLC, with cfg.Fault injected. Frames ride the
// policy under test on both sides.
func RunOutage(cfg OutageConfig) (OutageResult, error) {
	if cfg.Duration <= 0 {
		return OutageResult{}, fmt.Errorf("core: outage duration must be positive")
	}
	cfg.Policy = cmp.Or(cfg.Policy, PolicyEMBBOnly)
	if !ValidPolicy(cfg.Policy) {
		return OutageResult{}, fmt.Errorf("core: unknown steering policy %q", cfg.Policy)
	}
	spec, err := OutageFault(cfg.Fault, cfg.Duration)
	if err != nil {
		return OutageResult{}, err
	}

	w := NewWorld(cfg.Seed, cellular(fixedEMBB()))
	if err := w.Observe(cfg.Tracer, spec, "outage policy=%s fault=%s seed=%d", cfg.Policy, spec, cfg.Seed); err != nil {
		return OutageResult{}, err
	}

	res := OutageResult{Policy: cfg.Policy, Fault: spec.String()}
	var lastDelivery, maxGap time.Duration
	w.Server.Listen(func() transport.Config {
		tc := transport.Config{
			Steer: mustPolicy(cfg.Policy, w.Group, channel.B), Unreliable: true,
			MsgTimeout: 10 * time.Second,
		}
		if cfg.Reliable {
			tc.CC, tc.Unreliable, tc.MsgTimeout = cc.NewCubic(), false, 0
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

	tc := transport.Config{Steer: mustPolicy(cfg.Policy, w.Group, channel.A), Unreliable: true}
	if cfg.Reliable {
		tc.CC, tc.Unreliable = cc.NewCubic(), false
	}
	conn := w.Client.Dial(tc)
	st := conn.NewStream()

	// ~30 fps of 1200-byte frames for the whole run, pushed up front
	// onto one lane. Push draws each frame's sequence number as one
	// timer per frame would, so timestamp tie-breaks are unchanged; the
	// ticks fire in frame order, so one callback numbers them.
	const frameEvery = 33 * time.Millisecond
	const frameBytes = 1200
	res.Sent = int((cfg.Duration - 1) / frameEvery)
	next := 0
	frames := sim.NewLane(w.Loop, func() {
		conn.SendMessage(st, 0, frameBytes, next)
		next++
	})
	for i := 1; i <= res.Sent; i++ {
		frames.Push(time.Duration(i) * frameEvery)
	}

	w.Run(cfg.Duration)
	res.Events = w.Loop.Events()

	// The tail gap counts: a flow still stalled at the end of the run
	// scores the remainder as freeze.
	if gap := cfg.Duration - lastDelivery; gap > maxGap {
		maxGap = gap
	}
	res.Stall = maxGap
	return res, nil
}
