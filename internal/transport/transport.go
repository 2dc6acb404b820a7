// Package transport implements a reliable, message-oriented transport
// that runs over a set of heterogeneous virtual channels through a
// steering policy — the architecture the paper argues for in §3.2/§3.3:
//
//   - The unit of steering is the individual segment, so an ACK can
//     return over a different channel than the data it acknowledges,
//     and the tail of a message can be accelerated.
//   - The application-transport interface carries message boundaries
//     and priorities (SendMessage), and flows carry a flow priority;
//     steering policies read both from packet headers.
//   - Congestion control is pluggable (package cc) and is told which
//     channel each acknowledged segment traveled on, enabling the
//     HVC-aware controller.
//   - Loss detection is per-channel: a segment is declared lost only
//     when later segments on the same channel have been acknowledged,
//     so cross-channel reordering (URLLC packets overtaking eMBB ones
//     by tens of milliseconds) does not trigger spurious retransmits.
//
// An Endpoint demultiplexes one side's channels among connections; a
// Conn is one flow. Reliable connections carry ordered messages on
// lightweight stream IDs; unreliable connections (Config.Unreliable)
// carry best-effort messages for real-time media.
package transport

import (
	"fmt"
	"sync/atomic"

	"hvc/internal/channel"
	"hvc/internal/invariant"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/telemetry"
)

// An Endpoint is one host's attachment to the channel group. It owns
// the side's connections and routes arriving packets to them.
type Endpoint struct {
	loop  *sim.Loop
	side  channel.Side
	group *channel.Group
	pool  *packet.Pool // the group's shared free list

	conns    map[packet.FlowID]*Conn
	nextFlow packet.FlowID
	ids      packet.IDGen
	tracer   *telemetry.Tracer

	// carried is scratch for channel-name lists: the ones transmit
	// reports (a data packet's are interned into its chunk's copies at
	// once) and a retransmit event's.
	carried []string
	// rec lends every connection of the endpoint its transport records.
	rec arena
	// held counts the packets on hold for the endpoint's delayed
	// connections (Config.RxDelay), closed ones included — a hold drains
	// after its connection closes — for the packet ledger (CheckLedger).
	held int

	listenCfg func() Config
	accept    func(*Conn)
	// spare is the emptied hand-off record this world's lists arrived
	// in, for Retire to send them on in.
	spare *worldSpare
}

// NewEndpoint attaches an endpoint to side of every channel in group.
// Exactly one endpoint may exist per side of a group.
func NewEndpoint(loop *sim.Loop, group *channel.Group, side channel.Side) *Endpoint {
	e := &Endpoint{
		loop:  loop,
		side:  side,
		group: group,
		pool:  group.Pool(),
		conns: make(map[packet.FlowID]*Conn),
	}
	// Client-side flows are even, server-side odd, so simultaneous
	// dials from both sides cannot collide.
	if side == channel.A {
		e.nextFlow = 2
	} else {
		e.nextFlow = 1
	}
	for _, ch := range group.All() {
		ch.SetSink(side, e.receive)
	}
	return e
}

// SetTracer installs the telemetry hook for the endpoint and every
// connection subsequently created on it; nil disables tracing. Call
// it before dialing or accepting.
func (e *Endpoint) SetTracer(t *telemetry.Tracer) { e.tracer = t }

// Side reports which side of the channel group this endpoint is.
func (e *Endpoint) Side() channel.Side { return e.side }

// Loop returns the endpoint's simulation loop.
func (e *Endpoint) Loop() *sim.Loop { return e.loop }

// Listen makes the endpoint accept incoming connections. cfgFactory
// builds the configuration (congestion control, steering) for each
// accepted connection; accept is invoked with the new Conn before any
// of its messages are delivered.
func (e *Endpoint) Listen(cfgFactory func() Config, accept func(*Conn)) {
	if cfgFactory == nil || accept == nil {
		panic("transport: Listen requires a config factory and accept callback")
	}
	e.listenCfg = cfgFactory
	e.accept = accept
}

// Dial opens a connection to the peer endpoint. Reliable connections
// perform a one-round-trip handshake; messages sent before it
// completes are queued. Unreliable connections may send immediately.
func (e *Endpoint) Dial(cfg Config) *Conn {
	c := newConn(e, e.nextFlow, cfg, true)
	e.nextFlow += 2
	e.conns[c.flow] = c
	if cfg.Unreliable {
		c.established = true
	} else {
		c.sendSYN()
	}
	return c
}

// receive routes an arriving packet to its connection, creating a
// server-side connection on a handshake (or, for unreliable flows,
// first data) packet when a listener is installed. The packet dies
// here: handlePacket copies out everything it keeps, so the packet
// (payload box attached) goes back to the shared pool for the next
// transmission from either side.
func (e *Endpoint) receive(p *packet.Packet) {
	c, ok := e.conns[p.Flow]
	if !ok {
		c = e.acceptConn(p)
		if c == nil {
			e.pool.Put(p)
			return // no listener, or a stray packet: drop
		}
	}
	if c.cfg.RxDelay > 0 {
		// Per-flow extra path delay: the connection holds the packet
		// (rxHold) and processes it, then pools it, when the delay is up.
		c.hold(p)
		return
	}
	c.handlePacket(p)
	e.pool.Put(p)
}

func (e *Endpoint) acceptConn(p *packet.Packet) *Conn {
	if e.listenCfg == nil {
		return nil
	}
	switch pl := p.Payload.(type) {
	case *ctrlPayload:
		if !pl.syn {
			return nil
		}
	case *fragment:
		if !pl.unreliable {
			return nil // reliable data for an unknown flow: stray
		}
	default:
		return nil
	}
	cfg := e.listenCfg()
	if frag, ok := p.Payload.(*fragment); ok && frag.unreliable {
		cfg.Unreliable = true
	}
	// Adopt the peer's flow priority so responses to a bulk flow are
	// themselves stamped bulk and stay off constrained channels.
	cfg.FlowPriority = p.FlowPriority
	c := newConn(e, p.Flow, cfg, false)
	c.established = true
	e.conns[p.Flow] = c
	e.accept(c)
	return c
}

// forget removes a closed connection from the demux table.
func (e *Endpoint) forget(flow packet.FlowID) { delete(e.conns, flow) }

// CheckLedger asserts packet/ledger for the world of eps, the endpoints
// of one channel group, when invariant checking is on: every packet the
// group's pool has handed out and not taken back is on one of its links
// (queued, in serialization or propagating) or on hold at one of eps.
// Any other packet has leaked — discarded without going back to the
// pool, or still referenced by a component done with it. Call it where
// a run ends, between events.
func CheckLedger(eps ...*Endpoint) {
	if !invariant.Enabled() || len(eps) == 0 {
		return
	}
	g := eps[0].group
	onLinks, held := g.Packets(), 0
	for _, e := range eps {
		held += e.held
	}
	if live := g.Pool().Live(); live != onLinks+held {
		invariant.Failf("packet", "ledger",
			"%d packets out of the pool, %d on links and %d on hold", live, onLinks, held)
	}
}

// A worldSpare is what a finished world hands to the next one built in
// the process: its channel group's free packets and payload boxes, each
// side's free transport records, window arrays and receive holds, and
// the arrays its loop and links grew.
type worldSpare struct {
	pool   packet.Pool
	arenas [2]arena // by channel.Side
	loop   sim.Spare
	links  channel.Spare
}

// spares holds the latest retired world's lists until a new world
// adopts them. Worlds run one after another always hand theirs on; when
// concurrent workers retire two before one adopts, the older is dropped
// to the collector, so an idle process keeps at most one world's lists.
var spares atomic.Pointer[worldSpare]

// Retire ends the world of eps, the endpoints of one channel group, and
// hands everything it grew to the next world built in the process
// (Adopt). Call it where a run ends, after CheckLedger. In order:
//   - every connection still open closes (Close), by flow ID, returning
//     its flight, window array, queued and retransmit data and
//     reassembly records to its endpoint's arena;
//   - every receive hold, then every link (channel.Group.Retire), gives
//     its packets back to the group's pool;
//   - the pool's free lists, both arenas, the loop's arrays
//     (sim.Loop.Retire) and the links' rings go into one spare,
//     stripped of what they still hold of this world (scrub, arena.retire).
//
// With checking on, a packet still out of the pool or a record or
// window still lent fails transport/retire-empty. Nothing a runner
// reads after the run — connection and link counters, the clock, the
// loop's event count — changes, and nothing is allocated once the
// process has retired a world of the same shape. The world is inert
// afterwards: its connections are closed and its loop fails
// sim/retired-loop if asked to run or schedule anything. With fresh
// records on (invariant.Fresh), the spare is dropped.
func Retire(eps ...*Endpoint) {
	if len(eps) == 0 {
		return
	}
	hi := packet.FlowID(0)
	for _, e := range eps {
		hi = max(hi, e.nextFlow)
	}
	for _, e := range eps {
		for f := packet.FlowID(1); f < hi && len(e.conns) > 0; f++ {
			if c := e.conns[f]; c != nil {
				c.Close()
			}
		}
		for _, h := range e.rec.holds {
			for h.q.len() > 0 {
				e.pool.Put(h.q.pop().p)
				e.held--
			}
		}
	}
	e0 := eps[0]
	links := e0.group.Retire()
	if invariant.Enabled() {
		lent := 0
		for _, e := range eps {
			lent += e.rec.lent()
		}
		if invariant.Fresh() {
			lent = 0 // a dropped record still counts as made
		}
		if live := e0.pool.Live(); live != 0 || lent != 0 {
			invariant.Failf("transport", "retire-empty",
				"a retired world still has %d packets out of its pool and %d records or windows lent", live, lent)
		}
	}
	s := e0.spare
	if s == nil {
		s = new(worldSpare)
	}
	e0.spare = nil
	s.pool = e0.pool.Retire(scrub)
	for _, e := range eps {
		s.arenas[e.side] = e.rec.retire()
	}
	s.loop = e0.loop.Retire()
	s.links = links
	if !invariant.Fresh() {
		spares.Store(s)
	}
}

// Adopt gives eps, the endpoints of one new channel group, what one
// finished world retired, if any is waiting: the pool and the arenas (by
// side) take its free lists, the loop its arrays, and the links their
// rings, in order. Call it as the world is built, before it runs. With
// checking on, a spare that still holds anything of its world fails
// transport/spare-clean. With fresh records on, the spare is dropped.
func Adopt(eps ...*Endpoint) {
	if len(eps) == 0 {
		return
	}
	s := spares.Swap(nil)
	if s == nil || invariant.Fresh() {
		return
	}
	e0 := eps[0]
	e0.pool.Adopt(&s.pool, scrubbed)
	for _, e := range eps {
		e.rec.adopt(&s.arenas[e.side])
		s.arenas[e.side] = arena{}
	}
	e0.loop.Adopt(&s.loop)
	e0.group.Adopt(&s.links)
	s.pool = packet.Pool{}
	e0.spare = s // for Retire to fill again
}

// scrub drops the one reference a payload box can hold into its world:
// a fragment's application message.
func scrub(box any) {
	if f, ok := box.(*fragment); ok {
		f.data = nil
	}
}

// transmit steers and transmits p, cloning it per channel when the
// policy replicates. Channel names of the copies that were accepted
// are appended to carried (pass a reusable buffer sliced to zero
// length; an empty result means every copy was dropped at entry).
// transmit takes p: once it returns, the caller must not touch it. An
// accepted copy is its link's; a refused one is back in the pool — the
// original too, once the clones have been copied from it.
func (e *Endpoint) transmit(c *Conn, p *packet.Packet, carried []string) []string {
	chs := c.cfg.Steer.Pick(p)
	if len(chs) == 0 {
		panic(fmt.Sprintf("transport: policy %q picked no channel", c.cfg.Steer.Name()))
	}
	if invariant.Enabled() {
		e.checkLiveness(c.cfg.Steer, chs)
	}
	if e.tracer.Enabled() {
		names := make([]string, len(chs))
		for i, ch := range chs {
			names[i] = ch.Name()
		}
		reason := steering.Reason(c.cfg.Steer)
		e.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerSteering, Name: telemetry.EvDecision,
			Channel: telemetry.JoinNames(names), Flow: uint32(p.Flow),
			Seq: p.Seq, Msg: p.MsgID, Bytes: p.Size, Detail: reason,
		})
		for _, name := range names {
			e.tracer.Count("steering_decisions_total", 1,
				"policy", c.cfg.Steer.Name(), "channel", name, "reason", reason)
		}
	}
	refused := false
	for i, ch := range chs {
		q := p
		if i > 0 {
			q = e.clone(p)
		}
		switch {
		case ch.Send(e.side, q):
			carried = append(carried, ch.Name())
		case i > 0:
			e.pool.Put(q)
		default:
			refused = true // the clones are still to be copied from it
		}
	}
	if refused {
		e.pool.Put(p)
	}
	return carried
}

// checkLiveness asserts the steering liveness invariant: a policy that
// declares failover (steering.LivenessAware) must never steer a packet
// onto a channel in a fault outage while a live channel exists in the
// group. The scan is over the group's handful of channels and
// allocates nothing.
func (e *Endpoint) checkLiveness(pol steering.Policy, chs []*channel.Channel) {
	la, ok := pol.(steering.LivenessAware)
	if !ok || !la.FailsOver() {
		return
	}
	for _, ch := range chs {
		if !ch.Down() {
			continue
		}
		for _, alt := range e.group.All() {
			if !alt.Down() {
				invariant.Failf("steering", "liveness",
					"policy %q steered onto down channel %q while %q is live",
					pol.Name(), ch.Name(), alt.Name())
			}
		}
	}
}

// clone duplicates p for replicating policies, giving the copy its own
// payload box so that both packets can be recycled independently.
func (e *Endpoint) clone(p *packet.Packet) *packet.Packet {
	q := e.pool.Get()
	old := q.Payload
	*q = *p
	q.Payload = old
	switch pl := p.Payload.(type) {
	case *fragment:
		nf := e.fragBox(q)
		*nf = *pl
		q.Payload = nf
	case *ackPayload:
		na := e.ackBox(q)
		na.ranges = append(na.ranges[:0], pl.ranges...)
		q.Payload = na
	case *ctrlPayload:
		q.Payload = e.ctrlBox(q, *pl)
	}
	return q
}

// fragBox returns a fragment payload box for the pooled packet p:
// p's attached box when the type matches, else one the group's pool
// has parked, else a fresh one. A mismatched box is parked in turn
// (park) — in the pool, not here, because this endpoint mostly sends
// one kind and receives the other: the boxes it detaches are the ones
// its peer needs. The box contents are stale; callers overwrite.
func (e *Endpoint) fragBox(p *packet.Packet) *fragment {
	if f, ok := p.Payload.(*fragment); ok {
		return f
	}
	e.park(p.Payload)
	if f, ok := e.pool.GetBox(packet.Data).(*fragment); ok {
		return f
	}
	return new(fragment)
}

// ackBox is fragBox's counterpart for acknowledgment payloads.
func (e *Endpoint) ackBox(p *packet.Packet) *ackPayload {
	if a, ok := p.Payload.(*ackPayload); ok {
		return a
	}
	e.park(p.Payload)
	if a, ok := e.pool.GetBox(packet.Ack).(*ackPayload); ok {
		return a
	}
	return new(ackPayload)
}

// ctrlBox is fragBox's counterpart for control payloads, filled with v.
func (e *Endpoint) ctrlBox(p *packet.Packet, v ctrlPayload) *ctrlPayload {
	pl, ok := p.Payload.(*ctrlPayload)
	if !ok {
		e.park(p.Payload)
		if pl, ok = e.pool.GetBox(packet.Control).(*ctrlPayload); !ok {
			pl = new(ctrlPayload)
		}
	}
	*pl = v
	return pl
}

// park files a payload box detached from a pooled packet with the
// group's pool, under the kind of packet it serves. A fresh packet has
// none (nil), which is dropped.
func (e *Endpoint) park(box any) {
	switch box.(type) {
	case *fragment:
		e.pool.PutBox(packet.Data, box)
	case *ackPayload:
		e.pool.PutBox(packet.Ack, box)
	case *ctrlPayload:
		e.pool.PutBox(packet.Control, box)
	}
}
