package main

import (
	"math/rand"
	"time"

	"hvc/internal/app/web"
	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/core"
	"hvc/internal/metrics"
	"hvc/internal/netem"
	"hvc/internal/packet"
	"hvc/internal/pool"
	"hvc/internal/sim"
	"hvc/internal/sketch"
	"hvc/internal/steering"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

// Direct drives of leaf layers: each runs a fixed op script generated
// from the seed against one layer's public API and reports wall time
// per op. They are micro-measurements — a layer is a target only once
// the workload's self_frac says it matters — so each takes the best of
// three passes, the usual estimator for a short loop on a shared box.

const scriptLen = 1024 // op scripts are tables of this many entries, cycled

// perOp runs pass three times and returns the fastest pass's time per
// op in the given unit (time.Nanosecond, time.Microsecond, ...). pass
// reports how many ops it timed and how long they took, so a pass can
// keep its own set-up off the clock.
func perOp(unit time.Duration, pass func() (ops int, d time.Duration)) float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		ops, d := pass()
		if v := float64(d) / float64(unit) / float64(ops); i == 0 || v < best {
			best = v
		}
	}
	return best
}

// timed is the common pass: time one call that performs ops ops.
func timed(ops int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	return ops, time.Since(start)
}

// fixedWindow is the stub congestion controller of the transport
// drive: a constant window, no reaction, so the drive times the
// transport's own send/ack path.
type fixedWindow struct{ bytes int }

func (f fixedWindow) Name() string              { return "fixed" }
func (f fixedWindow) CWND() int                 { return f.bytes }
func (f fixedWindow) PacingRate() float64       { return 0 }
func (f fixedWindow) OnSent(time.Duration, int) {}
func (f fixedWindow) OnAck(cc.AckEvent)         {}
func (f fixedWindow) OnLoss(cc.LossEvent)       {}

// leafDrives fills out with every instrument-2c metric and reports how
// many drives left the regime they claim to time. scale divides the op
// counts (the smoke test passes more than 1).
func leafDrives(seed int64, scale int, out map[string]float64) (failed int) {
	rng := rand.New(rand.NewSource(seed))
	n := func(ops int) int { return max(ops/scale, 200) }

	// sim: P standing timers, each rescheduling itself after a scripted
	// delay, so the queue holds P events at every step. P=16 is one bulk
	// flow's timer population, P=512 the arena's.
	delays := make([]time.Duration, scriptLen)
	for i := range delays {
		delays[i] = time.Microsecond + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
	}
	simDrive := func(standing int) float64 {
		return perOp(time.Nanosecond, func() (int, time.Duration) {
			loop := sim.NewLoop(seed)
			i := 0
			var fire func()
			fire = func() {
				i++
				loop.After(delays[i%scriptLen], fire)
			}
			for t := 0; t < standing; t++ {
				fire()
			}
			ops := n(1_000_000)
			return timed(ops, func() {
				for k := 0; k < ops; k++ {
					loop.Step()
				}
			})
		})
	}
	out["sim.ns_per_event.p16"] = simDrive(16)
	out["sim.ns_per_event.p512"] = simDrive(512)

	// Per-session construction, the fleet's fixed cost.
	out["sim.newloop_us"] = perOp(time.Microsecond, func() (int, time.Duration) {
		ops := n(2000)
		return timed(ops, func() {
			for k := 0; k < ops; k++ {
				sim.NewLoop(seed + int64(k))
			}
		})
	})
	sessionTrace := trace.LowbandDriving(seed, 32*time.Second)
	out["channel.newgroup_us"] = perOp(time.Microsecond, func() (int, time.Duration) {
		loop := sim.NewLoop(seed)
		ops := n(2000)
		return timed(ops, func() {
			for k := 0; k < ops; k++ {
				core.Cellular(loop, sessionTrace)
			}
		})
	})

	// netem: one saturated link with a standing backlog. A packet costs
	// the loop two events, the end of its serialization and its arrival
	// 5 ms later, so each op offers one packet and steps twice: after the
	// first 5 ms the backlog stays where the prefill put it (about 600
	// packets queued, 800 in flight), whatever the op count. The packets
	// come from a ring larger than that, sized once from the script, so
	// none is offered again while the link still holds it.
	const backlog, ringLen = 1024, 4096
	ring := make([]packet.Packet, ringLen)
	for i := range ring {
		ring[i] = packet.Packet{ID: uint64(i), Size: 64 + rng.Intn(1437)}
	}
	netemLeft := false
	out["netem.ns_per_pkt"] = perOp(time.Nanosecond, func() (int, time.Duration) {
		loop := sim.NewLoop(seed)
		delivered := 0
		link := netem.New(loop, netem.Config{
			Name:       "drive",
			Trace:      trace.Constant("drive", 10*time.Millisecond, 1e9),
			QueueBytes: 64 << 20,
		}, func(*packet.Packet) { delivered++ })
		for k := 0; k < backlog; k++ {
			link.Send(&ring[k])
		}
		ops := n(400_000)
		held := 0 // most packets the link held at once
		_, d := timed(ops, func() {
			for k := backlog; k < backlog+ops; k++ {
				link.Send(&ring[k%ringLen])
				loop.Step()
				loop.Step()
				held = max(held, k+1-delivered)
			}
		})
		if st := link.Stats(); st.DroppedQueue > 0 || held >= ringLen || link.QueuedBytes() == 0 {
			netemLeft = true // tail drops, a packet offered twice, or no backlog
		}
		return ops, d
	})
	if netemLeft {
		failed++
	}

	// steering: a scripted packet mix over an idle eMBB+URLLC group.
	sizes := make([]int, scriptLen)
	for i := range sizes {
		sizes[i] = 64 + rng.Intn(1437)
	}
	pkts := make([]packet.Packet, scriptLen)
	for i := range pkts {
		pkts[i] = packet.Packet{ID: uint64(i), Flow: 1, Seq: uint64(i), Kind: packet.Data,
			Size: sizes[i], MsgID: uint64(i / 8), MsgRemaining: (7 - i%8) * packet.MaxPayload,
			Priority: packet.Priority(rng.Intn(3))}
		if rng.Intn(5) == 0 {
			pkts[i].Kind, pkts[i].Size, pkts[i].MsgRemaining = packet.Ack, packet.HeaderBytes, 0
		}
	}
	pickDrive := func(build func(*channel.Group) steering.Policy) float64 {
		return perOp(time.Nanosecond, func() (int, time.Duration) {
			loop := sim.NewLoop(seed)
			pol := build(core.Cellular(loop, trace.Constant("embb-fixed", 50*time.Millisecond, 60e6)))
			ops := n(1_000_000)
			return timed(ops, func() {
				for k := 0; k < ops; k++ {
					pol.Pick(&pkts[k%scriptLen])
				}
			})
		})
	}
	out["steering.ns_per_pick.dchannel"] = pickDrive(func(g *channel.Group) steering.Policy {
		return steering.NewDChannel(g, channel.A, steering.DChannelConfig{})
	})
	out["steering.ns_per_pick.priority"] = pickDrive(func(g *channel.Group) steering.Policy {
		return steering.NewPriority(g, channel.A, steering.PriorityConfig{AdmitPrio: -1, Heuristic: true})
	})

	// cc: an ack clock with scripted RTT and in-flight samples and one
	// loss per thousand acks.
	acks := make([]cc.AckEvent, scriptLen)
	for i := range acks {
		acks[i] = cc.AckEvent{
			RTT:          40*time.Millisecond + time.Duration(rng.Int63n(int64(30*time.Millisecond))),
			Bytes:        cc.MSS,
			InFlight:     (20 + rng.Intn(800)) * cc.MSS,
			DeliveryRate: 30e6 + rng.Float64()*30e6,
			Channel:      channel.NameEMBB,
		}
	}
	for _, name := range []string{"cubic", "bbr", "vegas", "vivace", "copa", "reno"} {
		out["cc.ns_per_ack."+name] = perOp(time.Nanosecond, func() (int, time.Duration) {
			alg, err := core.NewCC(name)
			if err != nil {
				panic(err) // the names above are core's own
			}
			// BBR walks its windowed-max filters on every ack, microseconds
			// at these in-flight depths, so the script is short.
			ops := n(50_000)
			return timed(ops, func() {
				now := time.Duration(0)
				for k := 0; k < ops; k++ {
					now += 200 * time.Microsecond
					alg.OnSent(now, cc.MSS)
					ev := acks[k%scriptLen]
					ev.Now = now
					alg.OnAck(ev)
					if k%1000 == 999 {
						alg.OnLoss(cc.LossEvent{Now: now, Bytes: cc.MSS, InFlight: ev.InFlight})
					}
				}
			})
		})
	}

	// transport: an endpoint pair over one ideal channel, one policy
	// that never chooses, a window that never moves. The window sets
	// the regime: 32 packets is a web object's, 2048 a bulk flow's.
	transportDrive := func(window int, virtual time.Duration) float64 {
		return perOp(time.Nanosecond, func() (int, time.Duration) {
			loop := sim.NewLoop(seed)
			ideal := trace.Constant("ideal", 10*time.Millisecond, 10e9)
			ch := channel.New(loop, channel.Config{
				Props:      channel.Properties{Name: "ideal", BaseRTT: 10 * time.Millisecond, Bandwidth: 10e9},
				DownTrace:  ideal,
				QueueBytes: 64 << 20,
			})
			g := channel.NewGroup(ch)
			client := transport.NewEndpoint(loop, g, channel.A)
			server := transport.NewEndpoint(loop, g, channel.B)
			var srv *transport.Conn
			server.Listen(func() transport.Config {
				return transport.Config{CC: fixedWindow{64 * cc.MSS}, Steer: steering.NewSingle(ch)}
			}, func(c *transport.Conn) { srv = c })
			conn := client.Dial(transport.Config{CC: fixedWindow{window * cc.MSS}, Steer: steering.NewSingle(ch)})
			conn.SendMessage(conn.NewStream(), 0, 1<<40, nil)
			virtual /= time.Duration(scale)
			start := time.Now()
			loop.RunUntil(virtual)
			d := time.Since(start)
			ops := 1
			if srv != nil {
				ops += int(srv.Stats().BytesReceived) / packet.MaxPayload
			}
			return ops, d
		})
	}
	out["transport.ns_per_pkt.w32"] = transportDrive(32, 30*time.Second)
	out["transport.ns_per_pkt.w2048"] = transportDrive(2048, 600*time.Millisecond)

	// What every RunWeb builds before its first packet.
	out["trace.gen_ms"] = perOp(time.Millisecond, func() (int, time.Duration) {
		return timed(1, func() { trace.LowbandDriving(seed, 5*time.Minute) })
	})
	out["app.web.corpus_ms"] = perOp(time.Millisecond, func() (int, time.Duration) {
		ops := max(20/scale, 1)
		return timed(ops, func() {
			for k := 0; k < ops; k++ {
				web.GenerateCorpus(seed+1000, 30)
			}
		})
	})

	// Aggregation: what a fleet does with every session's results.
	values := make([]float64, scriptLen)
	for i := range values {
		values[i] = 1 + rng.ExpFloat64()*40
	}
	out["sketch.ns_per_observe"] = perOp(time.Nanosecond, func() (int, time.Duration) {
		s := sketch.NewDefault()
		ops := n(2_000_000)
		return timed(ops, func() {
			for k := 0; k < ops; k++ {
				s.Observe(values[k%scriptLen])
			}
		})
	})
	out["sketch.us_per_merge"] = perOp(time.Microsecond, func() (int, time.Duration) {
		shard := sketch.NewGroup()
		for i, v := range values {
			shard.Observe([]string{"video/latency_ms", "video/ssim_mean", "video/frozen_frames", "fleet/start_offset_ms"}[i%4], v)
		}
		total := sketch.NewGroup()
		ops := n(2000)
		return timed(ops, func() {
			for k := 0; k < ops; k++ {
				total.Merge(shard)
			}
		})
	})
	out["metrics.ns_per_add"] = perOp(time.Nanosecond, func() (int, time.Duration) {
		ops := n(2_000_000)
		return timed(ops, func() {
			var d *metrics.Distribution
			for k := 0; k < ops; k++ {
				if k%120 == 0 { // one fresh distribution per 2 s session's frames
					d = new(metrics.Distribution)
				}
				d.Add(values[k%scriptLen])
			}
		})
	})
	out["pool.us_per_job"] = perOp(time.Microsecond, func() (int, time.Duration) {
		ops := n(20_000)
		sum := 0
		return timed(ops, func() {
			err := pool.Reduce(ops, 1, nil,
				func(i int) (int, error) { return i, nil },
				func(_ int, v int) { sum += v })
			if err != nil {
				panic(err) // the jobs cannot fail
			}
		})
	})
	return failed
}
