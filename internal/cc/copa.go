package cc

import "time"

// Copa implements a faithful-in-shape Copa (Arun & Balakrishnan, NSDI
// 2018): a delay-based controller that steers its sending rate toward
// the target rate 1/(δ·dq), where dq is the standing queueing delay —
// the difference between RTTstanding (the minimum RTT over the last
// half-smoothed-RTT) and a long-window minimum RTT. The window moves
// toward the target by v/(δ·cwnd) packets per ack, where the velocity
// v doubles once the direction of travel has persisted for three RTTs
// and resets to one whenever it flips. When the bottleneck queue stops
// draining — the signature of a buffer-filling competitor such as
// CUBIC — Copa switches to a competitive mode that adjusts 1/δ by
// AIMD, matching the aggression of the loss-based cross traffic; it
// returns to the default δ once the queue empties again.
//
// Under HVC packet steering Copa inherits the same vulnerability as
// Vegas and BBR (§3.1): one acknowledgment over URLLC poisons the
// long-window minimum, inflating the apparent standing queue on the
// eMBB path. In the contention arena it is the modern delay-based
// contrast to CUBIC's buffer filling.
type Copa struct {
	cwnd   int
	pacing float64

	// δ control. delta is the operative value; in competitive mode it
	// is 1/invDelta, driven by AIMD.
	delta       float64
	competitive bool
	invDelta    float64
	lostInRound bool

	// Long-window minimum RTT (the propagation estimate).
	minRTT      time.Duration
	minRTTStamp time.Duration

	// srtt smooths samples for the standing-window length (srtt/2).
	srtt time.Duration
	// standing is the RTTstanding filter: the windowed min over the
	// last srtt/2 of samples.
	standing windowed[time.Duration, time.Duration]

	// dqMin and dqMax are the extremes of the queueing-delay samples
	// over the last copaModeRTTs round trips, for nearly-empty
	// detection.
	dqMin, dqMax windowed[time.Duration, time.Duration]

	// Velocity state. The direction is which side of the target rate
	// the flow is on; crossing the target resets v to one, and v
	// doubles once per RTT after the same direction has held for
	// copaDirRTTs round trips.
	v          float64
	direction  int // +1 below target (growing), -1 above (shrinking)
	dirSince   time.Duration
	lastDouble time.Duration
	roundEnd   time.Duration // once-per-RTT competitive-mode bookkeeping
	slowStart  bool
}

const (
	// copaDelta is the default-mode δ: each flow aims to keep 1/δ = 2
	// packets in the bottleneck queue.
	copaDelta = 0.5
	// copaMinRTTWindow ages the propagation-delay estimate.
	copaMinRTTWindow = 10 * time.Second
	// copaModeRTTs is the nearly-empty detection window: the queue must
	// drain below copaEmptyFrac of its recent peak within this many
	// RTTs, or Copa assumes a buffer-filling competitor.
	copaModeRTTs = 5
	// copaEmptyFrac defines "nearly empty" relative to the recent peak
	// queueing delay.
	copaEmptyFrac = 0.1
	// copaOwnQueueFactor scales the flow's own expected standing queue
	// (1/δ packets plus oscillation, drained at roughly cwnd/RTT): a
	// queueing delay within this many packets' worth of drain time is
	// the flow's own doing, not a buffer-filling competitor's.
	copaOwnQueueFactor = 8
	// copaDirRTTs is how many same-direction rounds precede velocity
	// doubling.
	copaDirRTTs = 3
	// copaMaxVelocity caps the doubling.
	copaMaxVelocity = 1 << 15
	// copaMaxInvDelta caps competitive-mode aggression (δ ≥ 1/64).
	copaMaxInvDelta = 64
	// copaPacingGain spreads each window over half an RTT, the paper's
	// 2×cwnd/RTT pacing that keeps the rate smooth between updates.
	copaPacingGain = 2
)

// NewCopa returns a Copa controller in slow start with an initial
// window of 10 segments and the default δ.
func NewCopa() *Copa {
	return &Copa{
		standing:  windowed[time.Duration, time.Duration]{min: true},
		dqMin:     windowed[time.Duration, time.Duration]{min: true},
		cwnd:      10 * MSS,
		delta:     copaDelta,
		invDelta:  1 / copaDelta,
		v:         1,
		slowStart: true,
	}
}

// Name implements Algorithm.
func (c *Copa) Name() string { return "copa" }

// CWND implements Algorithm.
func (c *Copa) CWND() int { return c.cwnd }

// PacingRate implements Algorithm.
func (c *Copa) PacingRate() float64 { return c.pacing }

// OnSent implements Algorithm.
func (c *Copa) OnSent(time.Duration, int) {}

// Mode reports "default" or "competitive", for experiment annotation.
func (c *Copa) Mode() string {
	if c.competitive {
		return "competitive"
	}
	return "default"
}

// Delta reports the operative δ.
func (c *Copa) Delta() float64 { return c.delta }

// QueueDelay reports the current standing-queue estimate.
func (c *Copa) QueueDelay() time.Duration {
	st := c.rttStanding()
	if st == 0 || c.minRTT == 0 || st < c.minRTT {
		return 0
	}
	return st - c.minRTT
}

// rttStanding is the windowed minimum over the last srtt/2 of samples,
// 0 before the first.
func (c *Copa) rttStanding() time.Duration { return c.standing.best() }

// OnAck implements Algorithm.
func (c *Copa) OnAck(ev AckEvent) {
	if ev.RTT <= 0 {
		return
	}
	now := ev.Now

	// Filters: long-window min (aged like BBR's rtProp) and the
	// standing window of srtt/2.
	if c.srtt == 0 {
		c.srtt = ev.RTT
	} else {
		c.srtt = (7*c.srtt + ev.RTT) / 8
	}
	if c.minRTT == 0 || ev.RTT <= c.minRTT || now-c.minRTTStamp > copaMinRTTWindow {
		c.minRTT = ev.RTT
		c.minRTTStamp = now
	}
	c.standing.add(now, ev.RTT)
	c.standing.expire(now - c.srtt/2)

	st := c.rttStanding()
	dq := st - c.minRTT
	if dq < 0 {
		dq = 0
	}
	modeCutoff := now - copaModeRTTs*c.srtt
	c.dqMin.add(now, dq)
	c.dqMin.expire(modeCutoff)
	c.dqMax.add(now, dq)
	c.dqMax.expire(modeCutoff)
	c.updateMode(now, st)

	// Target rate λt = MSS/(δ·dq) bytes/s; current rate λ = cwnd/RTT.
	// dq == 0 means no standing queue: the target is unbounded and the
	// window grows.
	rate := float64(c.cwnd) / st.Seconds()
	target := float64(0)
	if dq > 0 {
		target = float64(MSS) / (c.delta * dq.Seconds())
	}
	below := dq == 0 || rate <= target

	// Crossing the target flips the direction and resets the velocity;
	// a direction held for copaDirRTTs RTTs earns one doubling per RTT.
	dir := 1
	if !below {
		dir = -1
	}
	if dir != c.direction {
		c.direction = dir
		c.dirSince = now
		c.lastDouble = now
		c.v = 1
	} else if now-c.dirSince >= copaDirRTTs*c.srtt && now-c.lastDouble >= c.srtt {
		c.v *= 2
		if c.v > copaMaxVelocity {
			c.v = copaMaxVelocity
		}
		c.lastDouble = now
	}

	if c.slowStart {
		// Slow start: double per RTT until the rate first crosses the
		// target, as the paper's startup does.
		if below {
			c.cwnd += ev.Bytes
		} else {
			c.slowStart = false
		}
	}
	if !c.slowStart {
		// v/(δ·w) packets per acked packet, in bytes: the full-window
		// step per RTT is v/δ packets. The step is capped at half the
		// acked bytes so the window never moves more than 50% per RTT,
		// however large the velocity has grown.
		pkts := float64(ev.Bytes) / MSS
		step := c.v * MSS * pkts / (c.delta * float64(c.cwnd) / MSS)
		if max := float64(ev.Bytes) / 2; step > max {
			step = max
		}
		if below {
			c.cwnd += int(step)
		} else {
			c.cwnd -= int(step)
		}
		c.cwnd = clampCwnd(c.cwnd)
	}

	c.roundTick(now)

	// Pace at 2×cwnd/RTTstanding so sending stays smooth between
	// window updates.
	if st > 0 {
		c.pacing = copaPacingGain * float64(c.cwnd) * 8 / st.Seconds()
	}
}

// roundTick runs the once-per-RTT competitive-mode bookkeeping: the
// additive increase of 1/δ on each loss-free round trip.
func (c *Copa) roundTick(now time.Duration) {
	if now < c.roundEnd {
		return
	}
	c.roundEnd = now + c.srtt

	if c.competitive {
		if !c.lostInRound {
			c.invDelta++
			if c.invDelta > copaMaxInvDelta {
				c.invDelta = copaMaxInvDelta
			}
		}
		c.delta = 1 / c.invDelta
	}
	c.lostInRound = false
}

// updateMode switches between the default and competitive modes: if
// the queueing delay has not dropped to nearly empty within the last
// copaModeRTTs round trips, a buffer-filling competitor is holding the
// queue and Copa must compete; once the queue drains again it reverts
// to δ = 0.5. "Nearly empty" is below copaEmptyFrac of the recent peak
// or within the flow's own expected standing queue — the few packets a
// lone Copa flow keeps queued by design must not read as a competitor.
func (c *Copa) updateMode(now time.Duration, st time.Duration) {
	if now < copaModeRTTs*c.srtt {
		return // not enough history to judge
	}
	// OnAck has just added this ack's sample, which no cutoff in the
	// past can expire, so neither window is empty.
	min, max := c.dqMin.best(), c.dqMax.best()
	ownBand := time.Duration(float64(st) * copaOwnQueueFactor * MSS / float64(c.cwnd))
	if cap := c.minRTT / 8; ownBand > cap {
		ownBand = cap
	}
	empties := max == 0 || float64(min) < copaEmptyFrac*float64(max) || min <= ownBand
	if empties {
		if c.competitive {
			c.competitive = false
			c.delta = copaDelta
			c.invDelta = 1 / copaDelta
		}
		return
	}
	if !c.competitive {
		c.competitive = true
		c.invDelta = 1 / copaDelta
		c.delta = copaDelta
	}
}

// OnLoss implements Algorithm. Default-mode Copa is delay-driven and
// ignores fast-retransmit loss; competitive mode halves 1/δ (the AIMD
// decrease). Timeouts reset conservatively in both modes.
func (c *Copa) OnLoss(ev LossEvent) {
	if ev.Timeout {
		c.cwnd = minCwnd
		c.slowStart = true
		c.v = 1
		c.direction = 0
		return
	}
	c.lostInRound = true
	if c.competitive {
		c.invDelta /= 2
		if c.invDelta < 1/copaDelta {
			c.invDelta = 1 / copaDelta
		}
		c.delta = 1 / c.invDelta
	}
}
