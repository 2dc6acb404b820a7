package main

import (
	"fmt"
	"math"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/core"
	"hvc/internal/metrics"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

// timedCC decorates a congestion controller: it times and counts the
// event callbacks the transport drives. The window and pacing getters
// pass through untimed — they are reads, and a clock pair around each
// would cost more than the call.
type timedCC struct {
	cc.Algorithm
	calls int64
	busy  time.Duration
}

func (t *timedCC) OnSent(now time.Duration, bytes int) {
	start := time.Now()
	t.Algorithm.OnSent(now, bytes)
	t.busy += time.Since(start)
	t.calls++
}

func (t *timedCC) OnAck(ev cc.AckEvent) {
	start := time.Now()
	t.Algorithm.OnAck(ev)
	t.busy += time.Since(start)
	t.calls++
}

func (t *timedCC) OnLoss(ev cc.LossEvent) {
	start := time.Now()
	t.Algorithm.OnLoss(ev)
	t.busy += time.Since(start)
	t.calls++
}

// timedPolicy decorates a steering policy the same way. Embedding the
// Counter keeps the LastReason and FailsOver methods the transport and
// the invariant layer look for.
type timedPolicy struct {
	*steering.Counter
	calls int64
	busy  time.Duration
}

func (t *timedPolicy) Pick(p *packet.Packet) []*channel.Channel {
	start := time.Now()
	chs := t.Counter.Pick(p)
	t.busy += time.Since(start)
	t.calls++
	return chs
}

// bulkTwin is core.RunBulk's bulk flow assembled here from the public
// constructors, so that the congestion controller and the steering
// policy can be decorated and the loop driven step by step from
// outside. It returns the receiver goodput; the caller checks it
// against core.RunBulk bit-for-bit, which proves the decorators only
// observe.
func bulkTwin(seed int64, dur time.Duration, ccName string, sp *spans) (mbps float64, err error) {
	alg, err := core.NewCC(ccName)
	if err != nil {
		return 0, err
	}
	// What core.NewPolicy builds for core.PolicyDChannel.
	newPolicy := func(side channel.Side, g *channel.Group) steering.Policy {
		return steering.NewDChannel(g, side, steering.DChannelConfig{})
	}

	loop := sim.NewLoop(seed)
	g := core.Cellular(loop, trace.Constant("embb-fixed", 50*time.Millisecond, 60e6))
	client := transport.NewEndpoint(loop, g, channel.A)
	server := transport.NewEndpoint(loop, g, channel.B)

	var srv *transport.Conn
	server.Listen(func() transport.Config {
		ccSrv, _ := core.NewCC("cubic")
		return transport.Config{CC: ccSrv, Steer: newPolicy(channel.B, g)}
	}, func(c *transport.Conn) { srv = c })

	tcc := &timedCC{Algorithm: alg}
	tpol := &timedPolicy{Counter: steering.NewCounter(newPolicy(channel.A, g))}
	conn := client.Dial(transport.Config{CC: tcc, Steer: tpol})

	// RunBulk records every RTT sample; the twin does the same work.
	var rtt metrics.TimeSeries
	var rttChannels []string
	conn.OnRTTSample(func(now, sample time.Duration, ch string) {
		rtt.Add(now, float64(sample)/float64(time.Millisecond))
		rttChannels = append(rttChannels, ch)
	})
	conn.SendMessage(conn.NewStream(), 0, int(1e9/8*dur.Seconds()), nil)

	// RunBulk calls RunUntil(dur). Step cannot see the next event's
	// time, so a sentinel one nanosecond past dur ends the drive: every
	// event at or before dur has then run, none after it.
	done := false
	loop.At(dur+1, func() { done = true })
	var steps int64
	start := time.Now()
	for !done && loop.Step() {
		steps++
	}
	elapsed := time.Since(start)
	// The decorated calls nest inside the steps; the sentinel step is
	// not the flow's.
	sp.add("sim.step", steps-1, elapsed)
	sp.add("sim.step/cc.call", tcc.calls, tcc.busy)
	sp.add("sim.step/steering.pick", tpol.calls, tpol.busy)

	if srv == nil {
		return 0, fmt.Errorf("bulk twin %s: no connection accepted", ccName)
	}
	return metrics.Mbps(float64(srv.Stats().BytesReceived) * 8 / dur.Seconds()), nil
}

// runTwin drives the twin for each Fig. 1a CCA next to core.RunBulk
// and returns how many goodputs disagree.
func runTwin(seed int64, dur time.Duration, sp *spans) (attempted, failed int, errs []string) {
	for _, cca := range fig1aCCAs {
		attempted++
		ref, err := core.RunBulk(core.BulkConfig{Seed: seed, Duration: dur, CC: cca})
		if err != nil {
			failed++
			errs = append(errs, err.Error())
			continue
		}
		got, err := bulkTwin(seed, dur, cca, sp)
		if err != nil {
			failed++
			errs = append(errs, err.Error())
			continue
		}
		if math.Float64bits(got) != math.Float64bits(ref.Mbps) {
			failed++
			errs = append(errs, fmt.Sprintf("bulk twin %s: goodput %v, core.RunBulk %v", cca, got, ref.Mbps))
		}
	}
	return attempted, failed, errs
}
