package core

import (
	"strings"
	"testing"
	"time"

	"hvc/internal/channel"
	"hvc/internal/metrics"
	"hvc/internal/packet"
	"hvc/internal/sim"
)

// sampledGroup builds an eMBB+URLLC group with discarding sinks, so a
// test can push raw packets into it.
func sampledGroup(seed int64) (*sim.Loop, *channel.Group) {
	loop := sim.NewLoop(seed)
	e, u := channel.EMBBFixed(loop), channel.URLLC(loop)
	for _, c := range []*channel.Channel{e, u} {
		c.SetSink(channel.A, func(*packet.Packet) {})
		c.SetSink(channel.B, func(*packet.Packet) {})
	}
	return loop, channel.NewGroup(e, u)
}

func queueOf(s *sampler, ch string, side channel.Side) *metrics.TimeSeries {
	return s.queues[sampleKey{ch, side}]
}

func thruOf(s *sampler, ch string, side channel.Side) *metrics.TimeSeries {
	return s.thru[sampleKey{ch, side}]
}

func dropsOf(s *sampler, ch string, side channel.Side) *metrics.TimeSeries {
	return s.drops[sampleKey{ch, side}]
}

// meanRateMbps is a channel side's average delivered rate over the
// whole sampled window; 0 for an unknown channel.
func meanRateMbps(s *sampler, ch string, side channel.Side) float64 {
	ts := thruOf(s, ch, side)
	if ts == nil || ts.N() == 0 {
		return 0
	}
	var bytes float64
	for _, p := range ts.Points() {
		bytes += p.Value
	}
	span := time.Duration(ts.N()) * s.every
	return metrics.Mbps(bytes * 8 / span.Seconds())
}

func TestSamplerRecordsQueueAndThroughput(t *testing.T) {
	loop, g := sampledGroup(1)
	s := newSampler(loop, g, 10*time.Millisecond)
	urllc := g.Get(channel.NameURLLC)
	// Saturate URLLC's A-side for half a second.
	for i := 0; i < 100; i++ {
		i := i
		loop.At(time.Duration(i)*5*time.Millisecond, func() {
			urllc.Send(channel.A, &packet.Packet{ID: uint64(i), Size: 1200})
		})
	}
	loop.RunUntil(time.Second)
	s.stop()

	q := queueOf(s, channel.NameURLLC, channel.A)
	if q.N() == 0 {
		t.Fatal("no queue samples")
	}
	peak := 0.0
	for _, p := range q.Points() {
		if p.Value > peak {
			peak = p.Value
		}
	}
	if peak == 0 {
		t.Fatal("URLLC queue never observed nonempty under saturation")
	}
	// ~2 Mbps over the busy window; mean over 1 s window lower but > 0.
	if rate := meanRateMbps(s, channel.NameURLLC, channel.A); rate <= 0 || rate > 2.5 {
		t.Fatalf("URLLC mean rate %.2f Mbps implausible", rate)
	}
	// The idle eMBB side saw nothing.
	if rate := meanRateMbps(s, channel.NameEMBB, channel.A); rate != 0 {
		t.Fatalf("idle eMBB rate %.2f, want 0", rate)
	}
}

func TestSamplerStopHaltsSampling(t *testing.T) {
	loop, g := sampledGroup(2)
	s := newSampler(loop, g, 10*time.Millisecond)
	loop.RunUntil(100 * time.Millisecond)
	s.stop()
	n := queueOf(s, channel.NameEMBB, channel.A).N()
	loop.RunUntil(500 * time.Millisecond)
	if got := queueOf(s, channel.NameEMBB, channel.A).N(); got != n {
		t.Fatalf("sampling continued after Stop: %d -> %d", n, got)
	}
	if loop.Pending() != 0 {
		t.Fatalf("%d events pending after Stop (timer leak)", loop.Pending())
	}
}

func TestSamplerDropsSeries(t *testing.T) {
	loop, g := sampledGroup(3)
	s := newSampler(loop, g, 10*time.Millisecond)
	urllc := g.Get(channel.NameURLLC)
	// Overwhelm the 64 kB URLLC queue instantly.
	for i := 0; i < 100; i++ {
		urllc.Send(channel.A, &packet.Packet{ID: uint64(i), Size: 1400})
	}
	loop.RunUntil(200 * time.Millisecond)
	s.stop()
	var drops float64
	for _, p := range dropsOf(s, channel.NameURLLC, channel.A).Points() {
		drops += p.Value
	}
	if drops == 0 {
		t.Fatal("queue overflow produced no drop samples")
	}
}

func TestSamplerCSV(t *testing.T) {
	loop, g := sampledGroup(4)
	s := newSampler(loop, g, 50*time.Millisecond)
	loop.RunUntil(200 * time.Millisecond)
	s.stop()
	var sb strings.Builder
	if err := s.writeCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "t_ms,channel,side,queue_bytes,delivered_bytes,drops\n") {
		t.Fatalf("missing header: %q", out[:60])
	}
	for _, want := range []string{"embb,A", "embb,B", "urllc,A", "urllc,B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %s rows", want)
		}
	}
}

func TestSamplerUnknownChannelNil(t *testing.T) {
	loop, g := sampledGroup(5)
	s := newSampler(loop, g, 10*time.Millisecond)
	defer s.stop()
	if queueOf(s, "nope", channel.A) != nil || thruOf(s, "nope", channel.B) != nil {
		t.Fatal("unknown channel should yield nil series")
	}
	if meanRateMbps(s, "nope", channel.A) != 0 {
		t.Fatal("unknown channel rate should be 0")
	}
}

func TestSamplerValidation(t *testing.T) {
	loop, g := sampledGroup(6)
	defer func() {
		if recover() == nil {
			t.Error("zero interval should panic")
		}
	}()
	newSampler(loop, g, 0)
}

// TestSamplerCSVGolden pins writeCSV's exact output for a small
// deterministic scenario: one 1000-byte packet into URLLC's A side at
// t=0, sampled every 50 ms for 200 ms. Row order is group order
// (embb, urllc) then side (A, B) then time; any format or ordering
// change must update this golden.
func TestSamplerCSVGolden(t *testing.T) {
	loop, g := sampledGroup(7)
	s := newSampler(loop, g, 50*time.Millisecond)
	urllc := g.Get(channel.NameURLLC)
	loop.At(0, func() { urllc.Send(channel.A, &packet.Packet{ID: 1, Size: 1000}) })
	loop.RunUntil(200 * time.Millisecond)
	s.stop()

	var sb strings.Builder
	if err := s.writeCSV(&sb); err != nil {
		t.Fatal(err)
	}
	const golden = `t_ms,channel,side,queue_bytes,delivered_bytes,drops
50,embb,A,0,0,0
100,embb,A,0,0,0
150,embb,A,0,0,0
200,embb,A,0,0,0
50,embb,B,0,0,0
100,embb,B,0,0,0
150,embb,B,0,0,0
200,embb,B,0,0,0
50,urllc,A,0,1000,0
100,urllc,A,0,0,0
150,urllc,A,0,0,0
200,urllc,A,0,0,0
50,urllc,B,0,0,0
100,urllc,B,0,0,0
150,urllc,B,0,0,0
200,urllc,B,0,0,0
`
	if got := sb.String(); got != golden {
		t.Fatalf("writeCSV output drifted from golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}
