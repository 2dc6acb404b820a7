// Package channel models heterogeneous virtual channels (HVCs): named
// duplex paths between two hosts, each excelling in some dimension of
// performance — throughput, latency, reliability, or cost — at the
// expense of the others (§2 of the paper). A Channel couples two netem
// links (one per direction) with a property sheet that steering
// policies and HVC-aware congestion control may consult, mirroring the
// paper's observation that exposing channel information to higher
// layers improves their decisions.
package channel

import (
	"fmt"
	"time"

	"hvc/internal/netem"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/telemetry"
	"hvc/internal/trace"
)

// Side identifies one endpoint of a channel. By convention side A is
// the client (UE) and side B the server.
type Side int

const (
	// A is the client-side endpoint.
	A Side = iota
	// B is the server-side endpoint.
	B
)

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == A {
		return B
	}
	return A
}

// String names the side for logs.
func (s Side) String() string {
	if s == A {
		return "A"
	}
	return "B"
}

// Properties is the channel information sheet available to steering
// and transport: the nominal figures a host would learn from the HVC's
// control plane (not the instantaneous trace values, which the host
// can only observe indirectly).
type Properties struct {
	Name string
	// BaseRTT is the nominal round-trip propagation delay.
	BaseRTT time.Duration
	// Bandwidth is the nominal downlink rate in bits per second.
	Bandwidth float64
	// LossProb is the channel's non-congestive loss rate.
	LossProb float64
	// CostPerByte prices channel use for cost-aware steering (e.g., a
	// cISP-style premium path); 0 means the channel is free.
	CostPerByte float64
	// Reliable marks channels with a reliability guarantee (URLLC's
	// five-nines target, or replicated Wi-Fi MLO).
	Reliable bool
}

// Config assembles a Channel.
type Config struct {
	Props Properties
	// DownTrace drives the B→A (server-to-client) direction, where
	// bulk data flows in the paper's workloads; UpTrace drives A→B
	// and defaults to DownTrace when nil.
	DownTrace *trace.Trace
	UpTrace   *trace.Trace
	// QueueBytes caps each direction's queue; 0 means netem's default.
	QueueBytes int
}

// A Channel is one duplex virtual channel. Its per-side delivery sinks
// must be set with SetSink before traffic flows.
type Channel struct {
	props Properties
	// toB carries A→B traffic, toA carries B→A traffic.
	toB, toA *netem.Link
	sinks    [2]netem.Sink // indexed by receiving Side
	// group is the owning Group (set by NewGroup); outage recovery
	// notifies its wake-on-up waiters.
	group *Group
}

// New builds a channel on the given loop. Delivery sinks start unset;
// the endpoints attach themselves with SetSink.
func New(loop *sim.Loop, cfg Config) *Channel {
	if cfg.DownTrace == nil {
		panic(fmt.Sprintf("channel %q: nil DownTrace", cfg.Props.Name))
	}
	up := cfg.UpTrace
	if up == nil {
		up = cfg.DownTrace
	}
	c := &Channel{props: cfg.Props}
	// The salts keep the two directions' private loss streams distinct
	// even though both links carry the channel's name.
	c.toA = netem.New(loop, netem.Config{
		Name:       cfg.Props.Name,
		Trace:      cfg.DownTrace,
		QueueBytes: cfg.QueueBytes,
		LossProb:   cfg.Props.LossProb,
		Salt:       "down",
	}, func(p *packet.Packet) { c.deliver(A, p) })
	c.toB = netem.New(loop, netem.Config{
		Name:       cfg.Props.Name,
		Trace:      up,
		QueueBytes: cfg.QueueBytes,
		LossProb:   cfg.Props.LossProb,
		Salt:       "up",
	}, func(p *packet.Packet) { c.deliver(B, p) })
	return c
}

// SetTracer installs the telemetry hook on both directions' links;
// nil disables tracing.
func (c *Channel) SetTracer(t *telemetry.Tracer) {
	c.toA.SetTracer(t)
	c.toB.SetTracer(t)
}

// Props returns the channel's property sheet.
func (c *Channel) Props() Properties { return c.props }

// Name returns the channel's name.
func (c *Channel) Name() string { return c.props.Name }

// SetSink registers the function that receives packets arriving at
// side s. It must be called for each side before that side receives
// traffic.
func (c *Channel) SetSink(s Side, sink netem.Sink) {
	c.sinks[s] = sink
}

func (c *Channel) deliver(to Side, p *packet.Packet) {
	sink := c.sinks[to]
	if sink == nil {
		panic(fmt.Sprintf("channel %q: packet arrived at side %v with no sink", c.props.Name, to))
	}
	sink(p)
}

// Send transmits p from the given side toward the other, reporting
// whether the channel accepted it (false means dropped at entry).
func (c *Channel) Send(from Side, p *packet.Packet) bool {
	return c.link(from).Send(p)
}

// QueuedBytes reports the bytes waiting to leave side from.
func (c *Channel) QueuedBytes(from Side) int {
	return c.link(from).QueuedBytes()
}

// QueueDelay estimates the wait a new packet sent from side from would
// experience before transmission begins.
func (c *Channel) QueueDelay(from Side) time.Duration {
	return c.link(from).QueueDelay()
}

// Stats returns the counters of the link leaving side from.
func (c *Channel) Stats(from Side) netem.Stats {
	return c.link(from).Stats()
}

func (c *Channel) link(from Side) *netem.Link {
	if from == A {
		return c.toB
	}
	return c.toA
}

// Fault-injection controls (see internal/fault). A channel-level fault
// models a radio- or path-level event, so it applies to both
// directions at once; per-direction loss processes go through
// SetLossFn because each direction keeps its own burst state.

// SetOutage blacks out (or restores) both directions of the channel.
// Packets already serialized still arrive; queued packets wait.
// Restoring a channel fires the owning group's wake-on-up waiters.
func (c *Channel) SetOutage(down bool) {
	wasDown := c.Down()
	c.toA.SetDown(down)
	c.toB.SetDown(down)
	if !down && wasDown && c.group != nil {
		c.group.notifyUp()
	}
}

// Down reports whether a fault outage is active on either direction.
// Steering policies consult it to fail over off a dead channel and to
// re-probe it the moment it recovers.
func (c *Channel) Down() bool { return c.toA.Down() || c.toB.Down() }

// SetRateScale applies a rate slump (0 < f, 1 = nominal) to both
// directions.
func (c *Channel) SetRateScale(f float64) {
	c.toA.SetRateScale(f)
	c.toB.SetRateScale(f)
}

// SetExtraDelay applies a delay spike (0 = nominal) to both directions.
func (c *Channel) SetExtraDelay(d time.Duration) {
	c.toA.SetExtraDelay(d)
	c.toB.SetExtraDelay(d)
}

// SetLossFn installs an extra per-packet drop process on the direction
// leaving side from; nil removes it.
func (c *Channel) SetLossFn(from Side, fn func() bool) {
	c.link(from).SetLossFn(fn)
}

// RateScale reports the fault-injection rate multiplier currently
// applied to both directions (1 = nominal). The fault layer's
// window-restore invariant reads it after clearing a slump.
func (c *Channel) RateScale() float64 { return c.toA.RateScale() }

// ExtraDelay reports the fault-injection delay currently added to both
// directions (0 = nominal).
func (c *Channel) ExtraDelay() time.Duration { return c.toA.ExtraDelay() }

// LossFnInstalled reports whether a fault-injection drop process is
// installed on the direction leaving side from.
func (c *Channel) LossFnInstalled(from Side) bool { return c.link(from).LossFnInstalled() }

// A Group is the set of channels available between one pair of hosts.
// It also owns the simulation's packet free list: the group is the one
// object both endpoints share, so packets recycled by the receiving
// side are reused by the sending side (see packet.Pool), and its links
// return to it every packet they lose in flight.
type Group struct {
	channels  []*Channel
	byName    map[string]*Channel
	pool      packet.Pool
	upWaiters []func()
	// rings is the array Retire lists the links' rings in: the one the
	// group's rings arrived in (Adopt), kept so handing on allocates
	// nothing.
	rings []netem.Rings
}

// NewGroup collects channels into a group, preserving order. Duplicate
// names panic: steering addresses channels by name.
func NewGroup(chs ...*Channel) *Group {
	g := &Group{byName: make(map[string]*Channel, len(chs))}
	for _, c := range chs {
		if _, dup := g.byName[c.Name()]; dup {
			panic("channel: duplicate channel name " + c.Name())
		}
		c.group = g
		c.toA.SetPool(&g.pool)
		c.toB.SetPool(&g.pool)
		g.channels = append(g.channels, c)
		g.byName[c.Name()] = c
	}
	return g
}

// AllDown reports whether every channel of the group is in a fault
// outage. Transports check it before arming entry-drop retry timers:
// when it holds, polling cannot succeed, and WakeOnUp is the way to
// resume.
func (g *Group) AllDown() bool {
	for _, c := range g.channels {
		if !c.Down() {
			return false
		}
	}
	return len(g.channels) > 0
}

// WakeOnUp registers a one-shot callback to run the next time any down
// channel of the group is restored. It replaces blind retry polling
// during a total blackout: an hour-long outage costs zero retry events
// because every blocked sender parks here and is woken exactly once.
func (g *Group) WakeOnUp(fn func()) { g.upWaiters = append(g.upWaiters, fn) }

// notifyUp drains the wake-on-up list. Callbacks may re-register
// (their retry can fail again); those wait for the next restoration.
func (g *Group) notifyUp() {
	ws := g.upWaiters
	g.upWaiters = nil
	for i, fn := range ws {
		ws[i] = nil
		fn()
	}
}

// All returns the group's channels in construction order. The slice is
// shared; callers must not modify it.
func (g *Group) All() []*Channel { return g.channels }

// Pool returns the group's shared packet free list.
func (g *Group) Pool() *packet.Pool { return &g.pool }

// Packets reports the packets on the group's links, both directions of
// every channel: queued, in serialization or propagating.
func (g *Group) Packets() int {
	n := 0
	for _, c := range g.channels {
		n += c.toA.Packets() + c.toB.Packets()
	}
	return n
}

// A Spare holds the rings a retired group's links handed on, in link
// order: each channel's B→A link, then its A→B link.
type Spare struct{ links []netem.Rings }

// Retire ends the group with its world (netem.Link.Retire): every
// packet on its links goes back to the group's pool, and the links'
// rings go into the spare returned. The array the spare lists them in
// is the one the group adopted with its own rings, if any.
func (g *Group) Retire() Spare {
	links := g.rings[:0]
	for _, c := range g.channels {
		links = append(links, c.toA.Retire(), c.toB.Retire())
	}
	g.rings = nil
	return Spare{links}
}

// Adopt gives the group's idle links, in order, the rings a retired
// group handed on (Retire), and empties s. A ring with no link of the
// same place is dropped.
func (g *Group) Adopt(s *Spare) {
	for i, c := range g.channels {
		if 2*i+1 < len(s.links) {
			c.toA.Adopt(&s.links[2*i])
			c.toB.Adopt(&s.links[2*i+1])
		}
	}
	clear(s.links)
	g.rings = s.links[:0]
	*s = Spare{}
}

// Get returns the named channel, or nil when absent.
func (g *Group) Get(name string) *Channel { return g.byName[name] }

// SetTracer installs the telemetry hook on every channel of the
// group; nil disables tracing.
func (g *Group) SetTracer(t *telemetry.Tracer) {
	for _, c := range g.channels {
		c.SetTracer(t)
	}
}

// Len reports the number of channels.
func (g *Group) Len() int { return len(g.channels) }

// Standard channel constructors matching the paper's scenarios.

// NameEMBB and NameURLLC are the conventional channel names used by
// experiments and steering defaults.
const (
	NameEMBB  = "embb"
	NameURLLC = "urllc"
)

// EMBB builds the high-bandwidth high-latency cellular channel driven
// by tr in both directions.
func EMBB(loop *sim.Loop, tr *trace.Trace) *Channel {
	s := tr.At(0)
	return New(loop, Config{
		Props: Properties{
			Name:      NameEMBB,
			BaseRTT:   s.RTT,
			Bandwidth: s.Rate,
		},
		DownTrace: tr,
	})
}

// EMBBFixed builds the Fig. 1 constant eMBB channel: 50 ms RTT at
// 60 Mbps.
func EMBBFixed(loop *sim.Loop) *Channel {
	return EMBB(loop, trace.Constant("embb-fixed", 50*time.Millisecond, 60e6))
}

// URLLC builds the low-latency low-bandwidth channel the paper
// emulates: 5 ms RTT at 2 Mbps, with URLLC's reliability guarantee.
// Its queue is kept shallow: URLLC admission control would not let a
// deep backlog form.
func URLLC(loop *sim.Loop) *Channel {
	return New(loop, Config{
		Props: Properties{
			Name:      NameURLLC,
			BaseRTT:   5 * time.Millisecond,
			Bandwidth: 2e6,
			Reliable:  true,
		},
		DownTrace:  trace.URLLC(),
		QueueBytes: 64 << 10,
	})
}

// WiFiMLO builds the two Wi-Fi 7 multi-link channels of §2.2: a lossy
// high-rate 5 GHz link and a clean, contention-free 6 GHz link.
func WiFiMLO(loop *sim.Loop) (band5, band6 *Channel) {
	band5 = New(loop, Config{
		Props: Properties{
			Name:      "wifi5",
			BaseRTT:   20 * time.Millisecond,
			Bandwidth: 120e6,
			LossProb:  0.02,
		},
		DownTrace: trace.Constant("wifi5", 20*time.Millisecond, 120e6),
	})
	band6 = New(loop, Config{
		Props: Properties{
			Name:      "wifi6ghz",
			BaseRTT:   4 * time.Millisecond,
			Bandwidth: 40e6,
			Reliable:  true,
		},
		DownTrace: trace.Constant("wifi6ghz", 4*time.Millisecond, 40e6),
	})
	return band5, band6
}

// CISP builds the §2.3 WAN pair: conventional fiber alongside a
// cISP-style speed-of-light microwave path that is fast, narrow, and
// priced per byte.
func CISP(loop *sim.Loop) (fiber, microwave *Channel) {
	fiber = New(loop, Config{
		Props: Properties{
			Name:      "fiber",
			BaseRTT:   40 * time.Millisecond,
			Bandwidth: 1e9,
		},
		DownTrace: trace.Constant("fiber", 40*time.Millisecond, 1e9),
	})
	microwave = New(loop, Config{
		Props: Properties{
			Name:        "cisp",
			BaseRTT:     13 * time.Millisecond, // ~c vs ~2c/3 in fiber
			Bandwidth:   10e6,
			CostPerByte: 1e-6,
		},
		DownTrace: trace.Constant("cisp", 13*time.Millisecond, 10e6),
	})
	return fiber, microwave
}

// LEO builds the §2.3 satellite pair: a Starlink-style LEO path with
// lower latency but less bandwidth than the terrestrial Internet path.
func LEO(loop *sim.Loop) (terrestrial, leo *Channel) {
	terrestrial = New(loop, Config{
		Props: Properties{
			Name:      "terrestrial",
			BaseRTT:   70 * time.Millisecond,
			Bandwidth: 500e6,
		},
		DownTrace: trace.Constant("terrestrial", 70*time.Millisecond, 500e6),
	})
	leo = New(loop, Config{
		Props: Properties{
			Name:      "leo",
			BaseRTT:   30 * time.Millisecond,
			Bandwidth: 50e6,
			LossProb:  0.005,
		},
		DownTrace: trace.Constant("leo", 30*time.Millisecond, 50e6),
	})
	return terrestrial, leo
}

// WiFiTSN builds the §2.2 wireless-TSN pair: a time-synchronized,
// scheduled channel with deterministic low latency, and the ordinary
// contention-based best-effort channel. Unlike cellular URLLC, TSN's
// reserved airtime is not free: every scheduled user's slots subtract
// from the best-effort channel's capacity and add contention latency,
// which is the deployment concern the paper raises. tsnUsers counts
// the stations holding TSN reservations (including this one) and must
// be at least 1.
func WiFiTSN(loop *sim.Loop, tsnUsers int) (tsn, bestEffort *Channel) {
	if tsnUsers < 1 {
		panic("channel: WiFiTSN needs at least one TSN user")
	}
	// Each reservation takes ~8 Mbps of airtime and adds scheduling
	// latency for everyone contending outside the protected slots.
	beRate := 150e6 - 8e6*float64(tsnUsers)
	if beRate < 20e6 {
		beRate = 20e6
	}
	beRTT := 20*time.Millisecond + 4*time.Millisecond*time.Duration(tsnUsers)
	tsn = New(loop, Config{
		Props: Properties{
			Name:      "wifi-tsn",
			BaseRTT:   8 * time.Millisecond,
			Bandwidth: 8e6,
			Reliable:  true,
		},
		DownTrace:  trace.Constant("wifi-tsn", 8*time.Millisecond, 8e6),
		QueueBytes: 64 << 10,
	})
	bestEffort = New(loop, Config{
		Props: Properties{
			Name:      "wifi-be",
			BaseRTT:   beRTT,
			Bandwidth: beRate,
			LossProb:  0.01,
		},
		DownTrace: trace.Constant("wifi-be", beRTT, beRate),
	})
	return tsn, bestEffort
}
