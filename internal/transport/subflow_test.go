package transport

import (
	"errors"
	"slices"
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/invariant"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/telemetry"
)

// outcome is everything observable about one transfer: the sender's
// counters and RTT estimate, the loop's event count, and when each
// message completed.
type outcome struct {
	stats       Stats
	srtt        time.Duration
	events      uint64
	deliveredAt []time.Duration
}

func (o outcome) equal(p outcome) bool {
	return o.stats == p.stats && o.srtt == p.srtt && o.events == p.events &&
		slices.Equal(o.deliveredAt, p.deliveredAt)
}

// A connection is one transport over a subflow set, so the set's shape
// is all that may tell two connections apart: a multipath connection
// over a one-channel group has one pinned subflow, a single-path
// connection steered onto that channel has one steered subflow, and
// the two must be the same flow event for event — for every controller,
// paced ones included. As two code paths they were not: the multipath
// one probe-gated its lone unmeasured subflow and ignored PacingRate.
func TestOneSubflowIsSinglePath(t *testing.T) {
	run := func(newCC func() cc.Algorithm, multipath bool) outcome {
		loop := sim.NewLoop(61)
		ch := channel.EMBBFixed(loop)
		g := channel.NewGroup(ch)
		client, server := NewEndpoint(loop, g, channel.A), NewEndpoint(loop, g, channel.B)
		cfg := func() Config {
			if multipath {
				return Config{Multipath: true, NewCC: newCC}
			}
			return Config{CC: newCC(), Steer: steering.NewSingle(ch)}
		}
		var out outcome
		server.Listen(cfg, func(c *Conn) {
			c.OnMessage(func(_ *Conn, m Message) { out.deliveredAt = append(out.deliveredAt, m.DeliveredAt) })
		})
		c := client.Dial(cfg())
		st := c.NewStream()
		// Spaced so the flow goes idle between some messages and queues
		// behind others as each controller's rate allows.
		for i := 0; i < 20; i++ {
			loop.At(time.Duration(i)*150*time.Millisecond, func() { c.SendMessage(st, 0, 400_000, nil) })
		}
		loop.RunUntil(20 * time.Second)
		out.stats, out.srtt, out.events = c.Stats(), c.SRTT(), loop.Events()
		return out
	}
	for _, alg := range []struct {
		name  string
		newCC func() cc.Algorithm
	}{
		{"cubic", func() cc.Algorithm { return cc.NewCubic() }},
		{"reno", func() cc.Algorithm { return cc.NewReno() }},
		{"bbr", func() cc.Algorithm { return cc.NewBBR() }},
		{"vegas", func() cc.Algorithm { return cc.NewVegas() }},
		{"copa", func() cc.Algorithm { return cc.NewCopa() }},
		{"vivace", func() cc.Algorithm { return cc.NewVivace() }},
	} {
		t.Run(alg.name, func(t *testing.T) {
			single, multi := run(alg.newCC, false), run(alg.newCC, true)
			if len(single.deliveredAt) < 10 { // the slowest starter, Vivace, finishes 15 of 20
				t.Fatalf("single-path delivered %d of 20 messages", len(single.deliveredAt))
			}
			if !single.equal(multi) {
				t.Errorf("one pinned subflow differs from one steered subflow:\n single-path %+v\n multipath   %+v", single, multi)
			}
		})
	}
}

// collapsing is a controller whose window drops to zero at its first
// ack — the runaway arithmetic the cwnd-bounds invariant exists for.
type collapsing struct{ fixedWindow }

func (c *collapsing) OnAck(cc.AckEvent) { c.bytes = 0 }

// The invariant layer covers every subflow's controller: a window that
// collapses on the second subflow alone must trip cwnd-bounds.
func TestSubflowControllersUnderInvariants(t *testing.T) {
	if !invariant.Compiled {
		t.Skip("invariant layer compiled out")
	}
	w := newWorld(62)
	w.server.Listen(func() Config { return multipathCfg() }, func(*Conn) {})
	built := 0
	c := w.client.Dial(Config{Multipath: true, NewCC: func() cc.Algorithm {
		if built++; built == 2 {
			return &collapsing{fixedWindow{64 * cc.MSS}}
		}
		return fixedWindow{64 * cc.MSS}
	}})
	c.SendMessage(c.NewStream(), 0, 1<<20, nil)

	defer func() {
		err, _ := recover().(error)
		var v *invariant.Violation
		if !errors.As(err, &v) || v.Layer != "transport" || v.Name != "cwnd-bounds" {
			t.Fatalf("want a transport/cwnd-bounds violation, got %v", err)
		}
	}()
	w.loop.RunUntil(5 * time.Second)
}

// eventCounts is a telemetry sink that counts events by name and
// channel label.
type eventCounts map[[2]string]int

func (e eventCounts) Event(ev telemetry.Event) { e[[2]string{ev.Name, ev.Channel}]++ }
func (e eventCounts) BeginRun(string)          {}
func (e eventCounts) Close() error             { return nil }

// Telemetry comes from the one send/ack path, so a multipath transfer
// reports every subflow's sends, acks, RTT samples and window updates
// under its channel's label, with the flow's byte counters — and, as
// everywhere, observing the flow does not move it.
func TestSubflowTelemetry(t *testing.T) {
	run := func(tracer *telemetry.Tracer) (outcome, *Conn) {
		w := newWorld(63)
		tracer.BindClock(w.loop.Now)
		w.client.SetTracer(tracer)
		w.server.SetTracer(tracer)
		var out outcome
		w.server.Listen(func() Config { return multipathCfg() }, func(c *Conn) {
			c.OnMessage(func(_ *Conn, m Message) { out.deliveredAt = append(out.deliveredAt, m.DeliveredAt) })
		})
		c := w.client.Dial(multipathCfg())
		for i := 0; i < 4; i++ {
			c.SendMessage(c.NewStream(), 0, 4<<20, nil)
		}
		w.loop.RunUntil(20 * time.Second)
		out.stats, out.srtt, out.events = c.Stats(), c.SRTT(), w.loop.Events()
		return out, c
	}
	counts := eventCounts{}
	tracer := telemetry.New(counts)
	traced, c := run(tracer)
	if len(traced.deliveredAt) != 4 {
		t.Fatalf("delivered %d of 4 messages", len(traced.deliveredAt))
	}
	for _, ch := range []string{channel.NameEMBB, channel.NameURLLC} {
		for _, name := range []string{telemetry.EvSend, telemetry.EvAck, telemetry.EvRTT, telemetry.EvCwnd} {
			if counts[[2]string{name, ch}] == 0 {
				t.Errorf("no %q event labelled %q", name, ch)
			}
		}
		if tracer.Registry().Value("cc_cwnd_bytes", "flow", flowLabel(c.flow), "alg", "cubic", "channel", ch) == 0 {
			t.Errorf("no cc_cwnd_bytes gauge for subflow %q", ch)
		}
	}
	for name, want := range map[string]int64{
		"transport_sent_bytes_total":  traced.stats.BytesSent,
		"transport_acked_bytes_total": traced.stats.BytesAcked,
		"transport_retransmits_total": int64(traced.stats.Retransmits),
	} {
		if got := tracer.Registry().Value(name, "flow", flowLabel(c.flow)); int64(got) != want || want == 0 {
			t.Errorf("%s = %v, the connection counted %d", name, got, want)
		}
	}
	if untraced, _ := run(nil); !traced.equal(untraced) {
		t.Errorf("tracing moved the flow:\n traced   %+v\n untraced %+v", traced, untraced)
	}
}
