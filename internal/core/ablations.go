package core

import (
	"fmt"
	"time"

	"hvc/internal/app/iot"
	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/metrics"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/transport"
)

// MLOResult reports the bandwidth-vs-reliability ablation (§2.2/§3.1):
// a periodic small-message stream over Wi-Fi MLO, comparing the lossy
// wide 5 GHz link alone against redundant transmission across both
// links.
type MLOResult struct {
	Mode string // "wifi5-only" or "redundant"
	// DeliveryRate is the fraction of messages that arrived complete.
	DeliveryRate float64
	// Latency is the delivered-message latency distribution in ms.
	Latency metrics.Distribution
	// PacketsOnAir counts packets offered to all channels — the
	// bandwidth price of replication.
	PacketsOnAir int64
}

// The MLO ablation's stream: one mloMsgBytes message every mloEvery.
const (
	mloMsgBytes = 1200
	mloEvery    = 10 * time.Millisecond
)

// RunMLO sends count messages of mloMsgBytes, one every mloEvery, over
// the Wi-Fi MLO pair, unreliably (time-sensitive TSN-style traffic).
func RunMLO(seed int64, count int, redundant bool) MLOResult {
	w := newWorld(seed, func(loop *sim.Loop) *channel.Group {
		return channel.NewGroup(channel.WiFiMLO(loop))
	})
	g, b5 := w.Group, w.Group.Get("wifi5")

	var policy steering.Policy
	mode := "wifi5-only"
	if redundant {
		policy = steering.NewRedundant(g)
		mode = "redundant"
	} else {
		policy = steering.NewSingle(b5)
	}

	res := MLOResult{Mode: mode}
	delivered := 0
	w.Server.Listen(func() transport.Config {
		return transport.Config{Steer: policy, Unreliable: true, MsgTimeout: 10 * time.Second}
	}, func(c *transport.Conn) {
		c.OnMessage(func(_ *transport.Conn, m transport.Message) {
			delivered++
			res.Latency.AddDuration(m.Latency())
		})
	})

	conn := w.Client.Dial(transport.Config{Steer: policy, Unreliable: true})
	st := conn.NewStream()
	// The sends fire in message order, so one callback numbers them.
	next := 0
	sends := sim.NewLane(w.Loop, func() {
		conn.SendMessage(st, 0, mloMsgBytes, next)
		next++
	})
	for i := 0; i < count; i++ {
		sends.Push(time.Duration(i) * mloEvery)
	}
	w.Run(time.Duration(count)*mloEvery + 5*time.Second)

	res.DeliveryRate = float64(delivered) / float64(count)
	for _, ch := range g.All() {
		res.PacketsOnAir += int64(ch.Stats(channel.A).Sent)
	}
	return res
}

// CostResult reports one point of the latency-vs-cost ablation: a
// request/response workload over fiber plus a priced cISP-style path
// under a byte budget.
type CostResult struct {
	BudgetBytesPerSec float64
	// Latency is the response-latency distribution in ms.
	Latency metrics.Distribution
	// SpentBytes and Dollars price the run.
	SpentBytes int64
	Dollars    float64
}

// costEvery is the cost ablation's request interval.
const costEvery = 20 * time.Millisecond

// RunCost issues count request/response exchanges (1 kB up, 20 kB
// down), one every costEvery, steering with a budgeted CostAware policy
// on the client; budget 0 disables the priced path entirely.
func RunCost(seed int64, count int, budgetBytesPerSec float64) CostResult {
	w := newWorld(seed, func(loop *sim.Loop) *channel.Group {
		return channel.NewGroup(channel.CISP(loop))
	})
	loop, g, fiber := w.Loop, w.Group, w.Group.Get("fiber")

	newPolicy := func(side channel.Side) steering.Policy {
		if budgetBytesPerSec <= 0 {
			return steering.NewSingle(fiber)
		}
		return steering.NewCostAware(g, side, loop.Now, steering.CostAwareConfig{
			Cheap: "fiber", Priced: "cisp",
			BudgetBytesPerSec: budgetBytesPerSec,
		})
	}
	clientPolicy := newPolicy(channel.A)

	res := CostResult{BudgetBytesPerSec: budgetBytesPerSec}
	w.Server.Listen(func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: newPolicy(channel.B)}
	}, func(c *transport.Conn) {
		c.OnMessage(func(conn *transport.Conn, m transport.Message) {
			conn.SendMessage(m.Stream, 0, 20_000, m.Data)
		})
	})

	conn := w.Client.Dial(transport.Config{CC: cc.NewCubic(), Steer: clientPolicy})
	type reqMeta struct{ at time.Duration }
	conn.OnMessage(func(_ *transport.Conn, m transport.Message) {
		meta, ok := m.Data.(reqMeta)
		if !ok {
			panic(fmt.Sprintf("core: cost ablation got %T", m.Data))
		}
		res.Latency.AddDuration(loop.Now() - meta.at)
	})
	st := conn.NewStream()
	requests := sim.NewLane(loop, func() {
		conn.SendMessage(st, 0, 1_000, reqMeta{at: loop.Now()})
	})
	for i := 0; i < count; i++ {
		requests.Push(time.Duration(i) * costEvery)
	}
	w.Run(time.Duration(count)*costEvery + 10*time.Second)

	if ca, ok := clientPolicy.(*steering.CostAware); ok {
		res.SpentBytes = ca.SpentBytes()
		res.Dollars = ca.Cost()
	}
	return res
}

// MultipathResult reports the MPTCP-baseline comparison (§1/§3.1): a
// bulk flow run with MPTCP-style min-RTT aggregation, with
// application-agnostic DChannel steering, or with DChannel plus a
// bulk flow-priority hint, while a small latency probe shares the
// channels. Aggregation and agnostic steering both bury URLLC under
// bulk bytes; only the application hint keeps it usable.
type MultipathResult struct {
	Mode string // "multipath", "dchannel", or "priority"
	// BulkMbps is the bulk flow's goodput — aggregation's strength.
	BulkMbps float64
	// Probe is the probe's message-latency distribution in ms —
	// aggregation's victim, since the min-RTT scheduler congests the
	// low-latency channel with bulk bytes.
	Probe metrics.Distribution
	// URLLCMaxQueue is the deepest URLLC backlog observed (bytes).
	URLLCMaxQueue int
}

// RunMultipath executes the comparison for one mode ("multipath",
// "dchannel", or "priority") over the fixed Fig. 1 channels.
func RunMultipath(seed int64, dur time.Duration, mode string) MultipathResult {
	switch mode {
	case "multipath", "dchannel", "priority":
	default:
		panic(fmt.Sprintf("core: unknown multipath-comparison mode %q", mode))
	}
	w := must(NewRun(seed, "fixed", dur, "", nil, ""))
	g := w.Group

	res := MultipathResult{Mode: mode}

	var bulkSrv *transport.Conn
	w.Server.Listen(func() transport.Config {
		return transport.Config{
			CC:    cc.NewCubic(),
			Steer: steering.NewDChannel(g, channel.B, steering.DChannelConfig{}),
		}
	}, func(c *transport.Conn) {
		if bulkSrv == nil {
			bulkSrv = c // first conn is the bulk flow (dialed first)
		}
		c.OnMessage(func(_ *transport.Conn, m transport.Message) {
			if m.Size <= probeBytes {
				res.Probe.AddDuration(m.Latency())
			}
		})
	})

	var bulkCfg transport.Config
	switch mode {
	case "multipath":
		bulkCfg = transport.Config{
			Multipath: true,
			NewCC:     func() cc.Algorithm { return cc.NewCubic() },
		}
	case "dchannel":
		bulkCfg = transport.Config{
			CC:    cc.NewCubic(),
			Steer: steering.NewDChannel(g, channel.A, steering.DChannelConfig{}),
		}
	case "priority":
		// The §3.3 fix: the application declares the flow bulk, and a
		// priority-aware policy keeps it off URLLC entirely.
		bulkCfg = transport.Config{
			CC:           cc.NewCubic(),
			Steer:        mustPolicy(PolicyDChannelPriority, g, channel.A),
			FlowPriority: packet.PriorityBulk,
		}
	}
	bulk := w.Client.Dial(bulkCfg)
	bulk.SendMessage(bulk.NewStream(), 0, int(1e9/8*dur.Seconds()), nil)

	probe := w.Client.Dial(transport.Config{
		Steer:      steering.NewDChannel(g, channel.A, steering.DChannelConfig{}),
		Unreliable: true,
	})
	probeStream := probe.NewStream()
	// One probe every 100 ms after a 2 s warmup, plus a queue sampler.
	probes := sim.NewLane(w.Loop, func() {
		probe.SendMessage(probeStream, 0, probeBytes, nil)
		if q := g.Get(channel.NameURLLC).QueuedBytes(channel.A); q > res.URLLCMaxQueue {
			res.URLLCMaxQueue = q
		}
	})
	for at := 2 * time.Second; at < dur; at += 100 * time.Millisecond {
		probes.Push(at)
	}
	w.Run(dur)

	if bulkSrv != nil {
		res.BulkMbps = metrics.Mbps(float64(bulkSrv.Stats().BytesReceived) * 8 / dur.Seconds())
	}
	return res
}

// probeBytes is the latency probe's message size: small enough that a
// healthy URLLC delivers it in a handful of milliseconds.
const probeBytes = 500

// BetaPoint reports one point of the DChannel reward/cost β sweep: how
// aggressively the heuristic spends the narrow channel, evaluated on
// the Fig. 2 video workload (lowband driving).
type BetaPoint struct {
	Beta float64
	// P95Latency is the decoded-frame p95 latency in ms.
	P95Latency float64
	// SSIM is the mean decoded-frame quality.
	SSIM float64
	// URLLCShare is the fraction of video packets steered to URLLC.
	URLLCShare float64
}

// RunBeta evaluates DChannel with cost coefficient beta on the Fig. 2
// video workload (lowband driving) — one point of the design-choice
// ablation DESIGN.md calls out. Small β floods URLLC with
// enhancement-layer bytes; large β leaves it idle.
func RunBeta(seed int64, dur time.Duration, beta float64) BetaPoint {
	var counter *steering.Counter
	r, err := runVideo(VideoConfig{Seed: seed, Duration: dur, Trace: "lowband-driving"},
		func(g *channel.Group, side channel.Side) (steering.Policy, error) {
			p := steering.NewDChannel(g, side, steering.DChannelConfig{Beta: beta})
			if side == channel.B {
				return p, nil
			}
			counter = steering.NewCounter(p)
			return counter, nil
		})
	if err != nil {
		panic(err)
	}
	counts := counter.Counts()
	total := counts[channel.NameEMBB] + counts[channel.NameURLLC]
	share := 0.0
	if total > 0 {
		share = float64(counts[channel.NameURLLC]) / float64(total)
	}
	return BetaPoint{
		Beta:       beta,
		P95Latency: r.Latency.Percentile(95),
		SSIM:       r.SSIM.Mean(),
		URLLCShare: share,
	}
}

// TailBoostResult reports the §3.2 end-of-message acceleration
// ablation: completion latency of medium-sized messages with and
// without tail diversion.
type TailBoostResult struct {
	Mode string // "embb-only" or "embb+tail"
	// Latency is the message completion-latency distribution in ms.
	Latency metrics.Distribution
}

// The tail-boost ablation's stream: one tailMsgBytes message every
// tailEvery.
const (
	tailMsgBytes = 60_000
	tailEvery    = 50 * time.Millisecond
)

// RunTailBoost sends count messages of tailMsgBytes, one every
// tailEvery, over the fixed cellular pair, eMBB-only versus eMBB with
// tail-boost.
func RunTailBoost(seed int64, count int, boost bool) TailBoostResult {
	runLen := time.Duration(count)*tailEvery + 10*time.Second
	w := must(NewRun(seed, "fixed", runLen, "", nil, ""))

	mkPolicy := func(side channel.Side) steering.Policy {
		base := steering.Policy(steering.NewSingle(w.Group.Get(channel.NameEMBB)))
		if boost {
			return steering.NewTailBoost(base, w.Group, side)
		}
		return base
	}
	mode := "embb-only"
	if boost {
		mode = "embb+tail"
	}
	res := TailBoostResult{Mode: mode}

	w.Server.Listen(func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: mkPolicy(channel.B)}
	}, func(c *transport.Conn) {
		c.OnMessage(func(_ *transport.Conn, m transport.Message) {
			res.Latency.AddDuration(m.Latency())
		})
	})

	conn := w.Client.Dial(transport.Config{CC: cc.NewCubic(), Steer: mkPolicy(channel.A)})
	st := conn.NewStream()
	sends := sim.NewLane(w.Loop, func() {
		conn.SendMessage(st, 0, tailMsgBytes, nil)
	})
	for i := 0; i < count; i++ {
		sends.Push(time.Duration(i) * tailEvery)
	}
	w.Run(runLen)
	return res
}

// TSNResult reports the wireless-TSN ablation (§2.2): deadline miss
// rate of periodic control loops on contended Wi-Fi, with and without
// TSN steering for the control traffic.
type TSNResult struct {
	Mode string // "best-effort" or "tsn"
	// MissRate is the fraction of control loops missing their cycle
	// deadline; P99Latency the completed loops' tail in ms.
	MissRate   float64
	P99Latency float64
	Completed  int
}

// RunTSN runs a 4-device plant (60 ms cycles) for dur while a
// ~160 Mbps loss-tolerant blast saturates the best-effort channel.
// With useTSN the control traffic is steered onto the TSN channel.
func RunTSN(seed int64, dur time.Duration, useTSN bool) TSNResult {
	w := newWorld(seed, func(loop *sim.Loop) *channel.Group {
		return channel.NewGroup(channel.WiFiTSN(loop, 2))
	})
	loop, g := w.Loop, w.Group
	tsn, be := g.Get("wifi-tsn"), g.Get("wifi-be")

	mkPolicy := func(side channel.Side) steering.Policy {
		if useTSN {
			return steering.NewPriority(g, side, steering.PriorityConfig{
				Wide: be.Name(), Narrow: tsn.Name(), AdmitPrio: 0,
			})
		}
		return steering.NewSingle(be)
	}

	w.Server.Listen(func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: mkPolicy(channel.B)}
	}, func(c *transport.Conn) {
		iot.ServeController(loop, c)
	})

	conn := w.Client.Dial(transport.Config{
		Steer: mkPolicy(channel.A), Unreliable: true, MsgTimeout: 5 * time.Second,
	})
	plant := iot.NewPlant(loop, conn, iot.Config{Duration: dur})

	blast := w.Client.Dial(transport.Config{Steer: steering.NewSingle(be), Unreliable: true})
	blastStream := blast.NewStream()
	sim.Every(loop, 10*time.Millisecond, func() {
		blast.SendMessage(blastStream, 0, 200_000, nil)
	})

	plant.Start()
	w.Run(dur + 2*time.Second)

	mode := "best-effort"
	if useTSN {
		mode = "tsn"
	}
	return TSNResult{
		Mode:       mode,
		MissRate:   plant.MissRate(),
		P99Latency: plant.LoopLatency.Percentile(99),
		Completed:  plant.Completed,
	}
}
