package cc

import "time"

// BBR implements a faithful-in-shape BBRv1 (Cardwell et al., 2017):
// it models the path with a windowed-max bottleneck bandwidth filter
// and a windowed-min round-trip filter, paces at gain × btlBW, and
// cycles through Startup, Drain, ProbeBW, and ProbeRTT states.
//
// Under packet steering BBR's model breaks exactly as §3.1 describes:
// acknowledgments that traveled the low-latency channel poison the
// min-RTT filter, the estimated BDP shrinks far below the wide
// channel's true BDP, and the inflight cap throttles throughput.
type BBR struct {
	cwnd   int
	pacing float64

	state bbrState

	// btlBW filter: windowed max over bbrBWWindowRounds rounds.
	bwFilter windowed[int64, float64]
	btlBW    float64

	// rtProp filter: windowed min over bbrRTWindow.
	rtProp      time.Duration
	rtPropStamp time.Duration

	// Round accounting (delivered-bytes based).
	delivered          int64
	nextRoundDelivered int64
	roundCount         int64

	// Startup full-pipe detection.
	fullBW       float64
	fullBWRounds int
	filledPipe   bool

	// ProbeBW gain cycling.
	cycleIndex int
	cycleStamp time.Duration

	// ProbeRTT bookkeeping.
	probeRTTDone time.Duration

	// Ack-aggregation compensation (Linux bbr_update_ack_aggregation):
	// acks arriving in bursts — which channel switching guarantees —
	// would otherwise leave the pipe idle between bursts, so BBR adds
	// the measured excess to its window.
	extraAckedEpochStart     time.Duration
	extraAckedEpochDelivered int64
	extraAcked               windowed[int64, float64] // windowed max over the same rounds, in bytes

	pacingGain float64
	cwndGain   float64
}

type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

func (s bbrState) String() string {
	switch s {
	case bbrStartup:
		return "startup"
	case bbrDrain:
		return "drain"
	case bbrProbeBW:
		return "probebw"
	default:
		return "probertt"
	}
}

const (
	bbrHighGain        = 2.885 // 2/ln(2)
	bbrBWWindowRounds  = 10
	bbrRTWindow        = 10 * time.Second
	bbrProbeRTTTime    = 200 * time.Millisecond
	bbrStartupGrowth   = 1.25
	bbrFullBWRoundsMax = 3
)

var bbrPacingCycle = [...]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBR returns a BBR controller in Startup with an initial window of
// 10 segments.
func NewBBR() *BBR {
	return &BBR{
		cwnd:       10 * MSS,
		state:      bbrStartup,
		pacingGain: bbrHighGain,
		cwndGain:   bbrHighGain,
	}
}

// Name implements Algorithm.
func (b *BBR) Name() string { return "bbr" }

// State reports the current state-machine phase, for experiment
// annotation (Fig. 1b's ProbeRTT dip).
func (b *BBR) State() string { return b.state.String() }

// RTProp reports the current min-RTT estimate.
func (b *BBR) RTProp() time.Duration { return b.rtProp }

// BtlBW reports the current bottleneck-bandwidth estimate in bits/s.
func (b *BBR) BtlBW() float64 { return b.btlBW }

// CWND implements Algorithm.
func (b *BBR) CWND() int { return b.cwnd }

// PacingRate implements Algorithm.
func (b *BBR) PacingRate() float64 { return b.pacing }

// OnSent implements Algorithm.
func (b *BBR) OnSent(time.Duration, int) {}

// OnAck implements Algorithm.
func (b *BBR) OnAck(ev AckEvent) {
	b.delivered += int64(ev.Bytes)
	if b.delivered >= b.nextRoundDelivered {
		b.roundCount++
		b.nextRoundDelivered = b.delivered + int64(ev.InFlight)
	}

	if ev.DeliveryRate > 0 && !ev.AppLimited {
		b.updateBW(ev.DeliveryRate)
	}
	b.updateAckAggregation(ev)
	// Enter ProbeRTT when the min-RTT filter goes stale (the 10 s
	// drain visible in Fig. 1b). Checked before the filter update,
	// which would otherwise refresh the stamp on expiry.
	if b.state != bbrProbeRTT && b.rtProp > 0 && ev.Now-b.rtPropStamp > bbrRTWindow {
		b.state = bbrProbeRTT
		b.probeRTTDone = ev.Now + bbrProbeRTTTime
	}
	if ev.RTT > 0 {
		b.updateRTProp(ev.Now, ev.RTT)
	}

	b.checkFullPipe()
	b.advanceState(ev)
	b.setGains()
	b.updateControls(ev.Now)
}

func (b *BBR) updateBW(bw float64) {
	b.bwFilter.add(b.roundCount, bw)
	b.bwFilter.expire(b.roundCount - bbrBWWindowRounds)
	b.btlBW = b.bwFilter.best()
}

// updateAckAggregation measures how far ack arrivals run ahead of the
// btlBW model within an epoch and keeps a windowed max of the excess.
func (b *BBR) updateAckAggregation(ev AckEvent) {
	if b.btlBW <= 0 {
		return
	}
	expected := int64(b.btlBW / 8 * (ev.Now - b.extraAckedEpochStart).Seconds())
	b.extraAckedEpochDelivered += int64(ev.Bytes)
	extra := b.extraAckedEpochDelivered - expected
	if extra < 0 {
		b.extraAckedEpochStart = ev.Now
		b.extraAckedEpochDelivered = int64(ev.Bytes)
		extra = int64(ev.Bytes)
	}
	if max := int64(b.cwnd); extra > max {
		extra = max
	}
	b.extraAcked.add(b.roundCount, float64(extra))
	b.extraAcked.expire(b.roundCount - bbrBWWindowRounds)
}

// maxExtraAcked returns the windowed ack-aggregation estimate in bytes.
func (b *BBR) maxExtraAcked() int { return int(b.extraAcked.best()) }

func (b *BBR) updateRTProp(now time.Duration, rtt time.Duration) {
	expired := now-b.rtPropStamp > bbrRTWindow
	if rtt <= b.rtProp || b.rtProp == 0 || expired {
		b.rtProp = rtt
		b.rtPropStamp = now
	}
}

func (b *BBR) checkFullPipe() {
	if b.filledPipe || b.state != bbrStartup {
		return
	}
	if b.btlBW >= b.fullBW*bbrStartupGrowth {
		b.fullBW = b.btlBW
		b.fullBWRounds = 0
		return
	}
	b.fullBWRounds++
	if b.fullBWRounds >= bbrFullBWRoundsMax {
		b.filledPipe = true
	}
}

func (b *BBR) advanceState(ev AckEvent) {
	now := ev.Now
	switch b.state {
	case bbrStartup:
		if b.filledPipe {
			b.state = bbrDrain
		}
	case bbrDrain:
		if ev.InFlight <= b.bdp(1) {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		// Advance the gain cycle once per rtProp.
		if b.rtProp > 0 && now-b.cycleStamp > b.rtProp {
			b.cycleIndex = (b.cycleIndex + 1) % len(bbrPacingCycle)
			b.cycleStamp = now
		}
	case bbrProbeRTT:
		if now >= b.probeRTTDone {
			b.rtPropStamp = now // filter refreshed by draining
			if b.filledPipe {
				b.enterProbeBW(now)
			} else {
				b.state = bbrStartup
			}
		}
	}
}

func (b *BBR) enterProbeBW(now time.Duration) {
	b.state = bbrProbeBW
	b.cycleIndex = 1 // start in the drain phase of the cycle per BBRv1
	b.cycleStamp = now
}

func (b *BBR) setGains() {
	switch b.state {
	case bbrStartup:
		b.pacingGain, b.cwndGain = bbrHighGain, bbrHighGain
	case bbrDrain:
		b.pacingGain, b.cwndGain = 1/bbrHighGain, bbrHighGain
	case bbrProbeBW:
		b.pacingGain, b.cwndGain = bbrPacingCycle[b.cycleIndex], 2
	case bbrProbeRTT:
		b.pacingGain, b.cwndGain = 1, 1
	}
}

// bdp returns gain × estimated bandwidth-delay product in bytes.
func (b *BBR) bdp(gain float64) int {
	if b.btlBW == 0 || b.rtProp == 0 {
		return 10 * MSS
	}
	return int(gain * b.btlBW * b.rtProp.Seconds() / 8)
}

func (b *BBR) updateControls(now time.Duration) {
	switch {
	case b.state == bbrProbeRTT:
		b.cwnd = 4 * MSS
	case !b.filledPipe && b.bdp(b.cwndGain) < b.cwnd:
		// Startup never shrinks the window (Linux bbr_set_cwnd):
		// early noisy estimates must not strangle the search.
	default:
		b.cwnd = b.bdp(b.cwndGain) + b.maxExtraAcked()
		if b.cwnd < 4*MSS {
			b.cwnd = 4 * MSS // BBR's minimum target window
		}
	}
	if b.btlBW > 0 {
		b.pacing = b.pacingGain * b.btlBW
	} else {
		// Before the first bandwidth sample, pace at the initial
		// window per a guessed RTT, as implementations do.
		b.pacing = float64(10*MSS*8) / 0.05
	}
}

// OnLoss implements Algorithm. BBRv1 ignores fast-retransmit loss (its
// model, not loss, drives the window) but honors retransmission
// timeouts conservatively.
func (b *BBR) OnLoss(ev LossEvent) {
	if ev.Timeout {
		b.cwnd = minCwnd
	}
}
