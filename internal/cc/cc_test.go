package cc

import (
	"math/rand"
	"testing"
	"time"
)

// ackStream feeds alg a steady sequence of n acks with the given RTT,
// advancing a synthetic clock by interAck between acks.
func ackStream(alg Algorithm, n int, rtt, interAck time.Duration, bytes int) time.Duration {
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += interAck
		alg.OnAck(AckEvent{Now: now, RTT: rtt, Bytes: bytes, InFlight: alg.CWND() / 2})
	}
	return now
}

func TestAllAlgorithmsStartAboveFloor(t *testing.T) {
	for _, alg := range []Algorithm{NewReno(), NewCubic(), NewVegas(), NewBBR(), NewVivace(), NewCopa()} {
		if alg.CWND() < minCwnd {
			t.Errorf("%s initial cwnd %d below floor", alg.Name(), alg.CWND())
		}
	}
}

func TestNames(t *testing.T) {
	want := map[string]Algorithm{
		"reno":   NewReno(),
		"cubic":  NewCubic(),
		"vegas":  NewVegas(),
		"bbr":    NewBBR(),
		"vivace": NewVivace(),
		"copa":   NewCopa(),
	}
	for name, alg := range want {
		if alg.Name() != name {
			t.Errorf("Name() = %q, want %q", alg.Name(), name)
		}
	}
	if got := NewHVCAware(NewBBR(), "embb").Name(); got != "hvc-bbr" {
		t.Errorf("hvc wrapper name = %q", got)
	}
}

func TestRenoSlowStartDoubles(t *testing.T) {
	r := NewReno()
	w0 := r.CWND()
	// Acking a full window in slow start doubles it.
	r.OnAck(AckEvent{Now: time.Millisecond, RTT: 10 * time.Millisecond, Bytes: w0})
	if got := r.CWND(); got != 2*w0 {
		t.Fatalf("cwnd after full-window ack = %d, want %d", got, 2*w0)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := NewReno()
	r.OnLoss(LossEvent{Bytes: MSS}) // exit slow start
	w := r.CWND()
	// One full window of acks → +1 MSS.
	for acked := 0; acked < w; acked += MSS {
		r.OnAck(AckEvent{Bytes: MSS})
	}
	if got := r.CWND(); got != w+MSS {
		t.Fatalf("cwnd = %d, want %d", got, w+MSS)
	}
}

func TestRenoLossHalves(t *testing.T) {
	r := NewReno()
	r.OnAck(AckEvent{Bytes: 20 * MSS})
	w := r.CWND()
	r.OnLoss(LossEvent{Bytes: MSS})
	if got := r.CWND(); got != w/2 {
		t.Fatalf("cwnd after loss = %d, want %d", got, w/2)
	}
}

func TestRenoTimeoutCollapses(t *testing.T) {
	r := NewReno()
	r.OnAck(AckEvent{Bytes: 20 * MSS})
	r.OnLoss(LossEvent{Timeout: true})
	if got := r.CWND(); got != minCwnd {
		t.Fatalf("cwnd after RTO = %d, want %d", got, minCwnd)
	}
}

func TestCwndNeverBelowFloor(t *testing.T) {
	for _, alg := range []Algorithm{NewReno(), NewCubic(), NewVegas()} {
		for i := 0; i < 50; i++ {
			alg.OnLoss(LossEvent{Bytes: MSS})
		}
		if alg.CWND() < minCwnd {
			t.Errorf("%s: cwnd %d fell below floor", alg.Name(), alg.CWND())
		}
	}
}

func TestCubicGrowsAfterLoss(t *testing.T) {
	c := NewCubic()
	// Establish an RTT, exit slow start with a loss at 100 segments.
	c.cwnd = 100 * MSS
	c.OnAck(AckEvent{Now: time.Second, RTT: 50 * time.Millisecond, Bytes: MSS})
	c.OnLoss(LossEvent{Bytes: MSS})
	wAfterLoss := c.CWND()
	if wAfterLoss >= 100*MSS {
		t.Fatalf("loss did not reduce window: %d", wAfterLoss)
	}
	if want := int(100 * MSS * cubicBeta); wAfterLoss < want-MSS || wAfterLoss > want+MSS {
		t.Fatalf("cwnd after loss = %d, want ≈%d", wAfterLoss, want)
	}
	// Feed acks over simulated seconds; window must recover past wMax.
	now := 2 * time.Second
	for i := 0; i < 4000; i++ {
		now += 5 * time.Millisecond
		c.OnAck(AckEvent{Now: now, RTT: 50 * time.Millisecond, Bytes: MSS})
	}
	if c.CWND() <= wAfterLoss {
		t.Fatalf("cubic failed to grow: %d", c.CWND())
	}
	if c.CWND() < 100*MSS {
		t.Fatalf("cubic should eventually exceed wMax, got %d", c.CWND())
	}
}

func TestCubicInsensitiveToRTTJumps(t *testing.T) {
	// The Fig. 1a property: CUBIC's window does not shrink when RTT
	// samples oscillate, only on loss.
	c := NewCubic()
	c.cwnd = 50 * MSS
	c.OnLoss(LossEvent{Bytes: MSS})
	w := c.CWND()
	now := time.Duration(0)
	for i := 0; i < 1000; i++ {
		now += 5 * time.Millisecond
		rtt := 50 * time.Millisecond
		if i%3 == 0 {
			rtt = 7 * time.Millisecond
		}
		c.OnAck(AckEvent{Now: now, RTT: rtt, Bytes: MSS})
	}
	if c.CWND() < w {
		t.Fatalf("cubic shrank on RTT oscillation: %d < %d", c.CWND(), w)
	}
}

func TestVegasStableAtOwnQueueingBand(t *testing.T) {
	v := NewVegas()
	v.ssthresh = 0 // skip slow start
	// RTT equals baseRTT: no queueing → additive growth.
	w := v.CWND()
	ackStream(v, 200, 50*time.Millisecond, 10*time.Millisecond, MSS)
	if v.CWND() <= w {
		t.Fatalf("vegas should grow without queueing: %d", v.CWND())
	}
}

func TestVegasCollapsesOnPoisonedBaseRTT(t *testing.T) {
	// One URLLC-routed ack sets baseRTT ≈ 7 ms; later 50 ms samples
	// look like enormous queueing and the window collapses — the
	// Fig. 1a Vegas pathology.
	v := NewVegas()
	v.ssthresh = 0
	v.cwnd = 40 * MSS
	v.OnAck(AckEvent{Now: time.Millisecond, RTT: 7 * time.Millisecond, Bytes: MSS})
	ackStream(v, 500, 50*time.Millisecond, 10*time.Millisecond, MSS)
	if v.CWND() > 10*MSS {
		t.Fatalf("vegas window %d did not collapse under poisoned baseRTT", v.CWND())
	}
}

func TestVegasIgnoresZeroRTTSamples(t *testing.T) {
	v := NewVegas()
	w := v.CWND()
	v.OnAck(AckEvent{Now: time.Second, RTT: 0, Bytes: MSS})
	if v.CWND() != w {
		t.Fatal("zero-RTT sample should be ignored")
	}
}

func TestBBRStartupFindsBandwidth(t *testing.T) {
	b := NewBBR()
	now := time.Duration(0)
	// 60 Mbps delivery samples, 50 ms RTT.
	for i := 0; i < 400; i++ {
		now += 2 * time.Millisecond
		b.OnAck(AckEvent{
			Now: now, RTT: 50 * time.Millisecond, Bytes: MSS,
			InFlight: 30 * MSS, DeliveryRate: 60e6,
		})
	}
	if b.BtlBW() != 60e6 {
		t.Fatalf("btlBW = %v, want 60e6", b.BtlBW())
	}
	if b.RTProp() != 50*time.Millisecond {
		t.Fatalf("rtProp = %v", b.RTProp())
	}
	if b.State() == "startup" {
		t.Fatal("BBR should have exited startup with flat bandwidth")
	}
	// cwnd ≈ 2×BDP = 2 × 60e6 × 0.05 / 8 = 750 kB.
	bdp := int(60e6 * 0.05 / 8)
	if b.CWND() < bdp || b.CWND() > 3*bdp {
		t.Fatalf("cwnd = %d, want within [BDP, 3BDP] of %d", b.CWND(), bdp)
	}
}

func TestBBRPoisonedMinRTTShrinksCwnd(t *testing.T) {
	// The Fig. 1 pathology: a few low-latency-channel samples drag
	// rtProp to 7 ms, shrinking the inflight cap far below the wide
	// channel's BDP.
	b := NewBBR()
	now := time.Duration(0)
	for i := 0; i < 400; i++ {
		now += 2 * time.Millisecond
		rtt := 50 * time.Millisecond
		if i%10 == 0 {
			rtt = 7 * time.Millisecond
		}
		b.OnAck(AckEvent{
			Now: now, RTT: rtt, Bytes: MSS,
			InFlight: 30 * MSS, DeliveryRate: 60e6,
		})
	}
	if b.RTProp() != 7*time.Millisecond {
		t.Fatalf("rtProp = %v, want poisoned 7ms", b.RTProp())
	}
	trueBDP := int(60e6 * 0.05 / 8)
	if b.CWND() >= trueBDP {
		t.Fatalf("cwnd %d should be below the true BDP %d", b.CWND(), trueBDP)
	}
}

func TestBBREntersProbeRTTWhenFilterStale(t *testing.T) {
	b := NewBBR()
	now := time.Duration(0)
	// Establish a min RTT, then only ever deliver larger samples; at
	// 10 s the filter goes stale and BBR must drain.
	sawProbeRTT := false
	for i := 0; i < 3000; i++ {
		now += 5 * time.Millisecond
		rtt := 60 * time.Millisecond
		if i == 0 {
			rtt = 50 * time.Millisecond
		}
		b.OnAck(AckEvent{Now: now, RTT: rtt, Bytes: MSS, InFlight: 30 * MSS, DeliveryRate: 60e6})
		if b.State() == "probertt" {
			sawProbeRTT = true
			if b.CWND() != 4*MSS {
				t.Fatalf("ProbeRTT cwnd = %d, want %d", b.CWND(), 4*MSS)
			}
		}
	}
	if !sawProbeRTT {
		t.Fatal("BBR never entered ProbeRTT with a stale filter")
	}
	if b.State() == "probertt" {
		t.Fatal("BBR stuck in ProbeRTT")
	}
}

func TestBBRIgnoresAppLimitedSamples(t *testing.T) {
	b := NewBBR()
	b.OnAck(AckEvent{Now: time.Millisecond, RTT: 50 * time.Millisecond,
		Bytes: MSS, DeliveryRate: 100e6, AppLimited: true})
	if b.BtlBW() != 0 {
		t.Fatalf("app-limited sample entered the filter: %v", b.BtlBW())
	}
}

func TestBBRPacingFollowsGainAndBW(t *testing.T) {
	b := NewBBR()
	b.OnAck(AckEvent{Now: time.Millisecond, RTT: 50 * time.Millisecond,
		Bytes: MSS, InFlight: 10 * MSS, DeliveryRate: 10e6})
	if b.PacingRate() < 10e6 {
		t.Fatalf("startup pacing %v should exceed btlBW", b.PacingRate())
	}
}

func TestVivaceCollapsesUnderPositiveRTTGradient(t *testing.T) {
	v := NewVivace()
	start := v.Rate()
	now := time.Duration(0)
	// Every monitor interval sees RTT rising steeply (as steering's
	// oscillation produces): utility punishes, rate must fall.
	rtt := 10 * time.Millisecond
	for i := 0; i < 4000; i++ {
		now += 2 * time.Millisecond
		rtt += 400 * time.Microsecond
		if rtt > 60*time.Millisecond {
			rtt = 10 * time.Millisecond
		}
		v.OnAck(AckEvent{Now: now, RTT: rtt, Bytes: MSS, InFlight: 10 * MSS})
	}
	if v.Rate() >= start {
		t.Fatalf("vivace rate %v did not fall from %v under RTT inflation", v.Rate(), start)
	}
}

func TestVivaceGrowsOnCleanPath(t *testing.T) {
	v := NewVivace()
	start := v.Rate()
	now := time.Duration(0)
	for i := 0; i < 4000; i++ {
		now += 2 * time.Millisecond
		v.OnAck(AckEvent{Now: now, RTT: 20 * time.Millisecond, Bytes: MSS, InFlight: 10 * MSS})
	}
	if v.Rate() <= start {
		t.Fatalf("vivace rate %v did not grow on a clean path", v.Rate())
	}
}

func TestVivaceRateBounds(t *testing.T) {
	v := NewVivace()
	for i := 0; i < 100; i++ {
		v.OnLoss(LossEvent{Timeout: true, Bytes: MSS})
	}
	if v.Rate() < vivaceMinRate {
		t.Fatalf("rate %v below floor", v.Rate())
	}
	if v.PacingRate() <= 0 {
		t.Fatal("pacing must stay positive")
	}
}

func TestHVCAwareFiltersForeignSamples(t *testing.T) {
	inner := NewVegas()
	h := NewHVCAware(inner, "embb")
	// URLLC sample must not poison the inner baseRTT.
	h.OnAck(AckEvent{Now: time.Millisecond, RTT: 7 * time.Millisecond, Bytes: MSS, Channel: "urllc"})
	h.OnAck(AckEvent{Now: 2 * time.Millisecond, RTT: 50 * time.Millisecond, Bytes: MSS, Channel: "embb"})
	if inner.baseRTT != 50*time.Millisecond {
		t.Fatalf("baseRTT = %v, want 50ms (urllc sample filtered)", inner.baseRTT)
	}
}

func TestHVCAwareKeepsUnlabeledSamples(t *testing.T) {
	inner := NewVegas()
	h := NewHVCAware(inner, "embb")
	h.OnAck(AckEvent{Now: time.Millisecond, RTT: 30 * time.Millisecond, Bytes: MSS})
	if inner.baseRTT != 30*time.Millisecond {
		t.Fatal("unlabeled sample should pass through")
	}
}

func TestHVCAwareDelegates(t *testing.T) {
	inner := NewReno()
	h := NewHVCAware(inner, "embb")
	if h.CWND() != inner.CWND() || h.PacingRate() != inner.PacingRate() {
		t.Fatal("delegation broken")
	}
	if h.Inner() != inner {
		t.Fatal("Inner() broken")
	}
	h.OnLoss(LossEvent{Timeout: true})
	if inner.CWND() != minCwnd {
		t.Fatal("OnLoss not delegated")
	}
	h.OnSent(0, MSS) // must not panic
}

func TestHVCAwarePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil inner":  func() { NewHVCAware(nil, "embb") },
		"empty name": func() { NewHVCAware(NewReno(), "") },
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

// BenchmarkBBROnAck is BBR's cost per ack on a steady ack clock: rounds
// of a few hundred acks, so its ten-round filters span thousands of
// samples — each of which every ack rescanned before the windowed
// kernel.
func BenchmarkBBROnAck(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	acks := make([]AckEvent, 4096)
	for i := range acks {
		acks[i] = AckEvent{
			RTT:          40*time.Millisecond + time.Duration(rng.Int63n(int64(30*time.Millisecond))),
			Bytes:        MSS,
			InFlight:     (20 + rng.Intn(800)) * MSS,
			DeliveryRate: 30e6 + rng.Float64()*30e6,
		}
	}
	alg := NewBBR()
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 200 * time.Microsecond
		ev := acks[i%len(acks)]
		ev.Now = now
		alg.OnAck(ev)
	}
}

func BenchmarkCubicOnAck(b *testing.B) {
	alg := NewCubic()
	alg.OnLoss(LossEvent{Bytes: MSS})
	for i := 0; i < b.N; i++ {
		alg.OnAck(AckEvent{Now: time.Duration(i) * time.Millisecond,
			RTT: 50 * time.Millisecond, Bytes: MSS})
	}
}
