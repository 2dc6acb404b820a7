package transport

import (
	"fmt"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/packet"
)

// Every connection sends over a set of subflows, and one send / ack /
// loss / RTO / control path serves the whole set. A connection differs
// only in how the set is built:
//
//   - Single path: one steered subflow. Its path is "ask Config.Steer
//     for every packet", so segments (and their replicas) can land on
//     any channel; its controller is Config.CC. This is the HVC-aware
//     architecture the paper argues for.
//   - Multipath (Config.Multipath): the MPTCP/MPQUIC-style baseline the
//     paper contrasts against (§1, §3.2) — one subflow pinned to each
//     channel of the group, each with its own controller from
//     Config.NewCC, filled by a min-RTT scheduler (pickSubflow), the
//     default MPTCP scheduler.
//
// The baseline aggregates bandwidth across channels but is blind to
// what the channels are *for*: it happily fills URLLC (whose RTT is
// always the lowest) with bulk bytes, which is exactly the behaviour
// the paper criticizes — "MPTCP ... will congest a low bandwidth
// URLLC link due to its extremely low RTT value".

// A subflow is one path's share of a connection: its congestion
// controller and everything that controller's decisions rest on. The
// sequence space, the in-flight set, SACK state, the RFC 6298 RTO and
// the stream scheduler stay with the connection.
type subflow struct {
	// ch pins the subflow to one channel; nil marks the steered subflow,
	// whose packets go wherever Config.Steer sends them. name labels the
	// subflow in telemetry: the pinned channel's, or nothing for the
	// steered subflow, whose packets name their own channels.
	ch   *channel.Channel
	name string
	// alg is nil on unreliable connections, which never consult it.
	alg      cc.Algorithm
	inflight int
	srtt     time.Duration
	// recoverySeq gates loss notifications per subflow, as each
	// controller runs its own recovery.
	recoverySeq uint64
	// pacingNext is the earliest the controller's pacing rate admits
	// the next packet.
	pacingNext time.Duration

	// Scratch for the ack or loss event being processed, so grouping
	// records by subflow needs no map: bytes newly acked and the newest
	// record among them (ackRanges fills, handleAck consumes), bytes
	// newly declared lost (detectLosses and onRTO).
	ackBytes  int
	ackNewest *chunk
	lostBytes int
}

// initSubflows builds the connection's subflow set (see the overview
// above). The first subflow lives inside the Conn, so a single-path
// connection allocates nothing for it.
func (c *Conn) initSubflows() {
	if !c.cfg.Multipath {
		c.sub0[0].alg = c.cfg.CC
		c.subs = c.sub0[:]
		return
	}
	chs := c.ep.group.All()
	if len(chs) == 0 {
		panic(fmt.Sprintf("transport: flow %d: multipath over an empty channel group", c.flow))
	}
	c.subs = make([]subflow, len(chs))
	for i, ch := range chs {
		c.subs[i] = subflow{ch: ch, name: ch.Name(), alg: c.cfg.NewCC()}
	}
}

// transmit sends p on the subflow's path — its pinned channel, or for
// the steered subflow whatever the steering policy picks, replicas
// included — and appends the names of the channels that accepted a
// copy to carried. Like Endpoint.transmit it takes p: a packet the
// pinned channel refuses goes back to the pool.
func (c *Conn) transmit(sf *subflow, p *packet.Packet, carried []string) []string {
	if sf.ch == nil {
		return c.ep.transmit(c, p, carried)
	}
	if sf.ch.Send(c.ep.side, p) {
		carried = append(carried, sf.name)
	} else {
		c.ep.pool.Put(p)
	}
	return carried
}

// pickSubflow returns the subflow to fill next, nil when none can take
// a packet now. A lone subflow is taken whenever its window and pacing
// allow. Several race min-RTT-first: the up subflow with window space
// and the lowest *measured* smoothed RTT wins. A subflow with no RTT
// sample yet — fresh, or newly recovered from an outage — must not win
// that race on a zero srtt (it would capture the whole scheduler until
// its first ack); instead it is probed with a single chunk at a time
// until an ack measures it. The probe takes precedence so light traffic
// still reaches unmeasured paths, but with at most one chunk
// outstanding it cannot starve the measured ones.
//
// When nothing is sendable, what reopens the send path is an ack
// (window space), the pacing timer armed here if pacing alone holds a
// subflow back, or — every racing subflow's channel being down — the
// group's wake-on-up list, as after a refused packet.
func (c *Conn) pickSubflow() *subflow {
	now := c.loop.Now()
	race := len(c.subs) > 1
	var best, probe *subflow
	var paced time.Duration // earliest release among subflows only pacing holds back
	down := 0
	for i := range c.subs {
		sf := &c.subs[i]
		if race && sf.ch.Down() {
			down++
			continue
		}
		if sf.inflight >= sf.alg.CWND() {
			continue
		}
		unmeasured := race && sf.srtt == 0
		if unmeasured && (probe != nil || sf.inflight > 0) {
			continue
		}
		if sf.pacingNext > now && sf.alg.PacingRate() > 0 {
			if paced == 0 || sf.pacingNext < paced {
				paced = sf.pacingNext
			}
			continue
		}
		if unmeasured {
			probe = sf
		} else if best == nil || sf.srtt < best.srtt {
			best = sf
		}
	}
	switch {
	case probe != nil:
		return probe
	case best != nil:
		return best
	case paced > 0:
		// A subflow whose window an ack just reopened can be due before
		// the one the timer was armed for.
		if !c.pacingTimer.Active() || paced < c.pacingAt {
			c.pacingAt = paced
			c.loop.ResetAt(&c.pacingTimer, paced, c.trySendFn)
		}
	case down == len(c.subs):
		c.backoffSend()
	}
	return nil
}

// SubflowStats reports one subflow's current state, for experiments.
type SubflowStats struct {
	Channel  string
	CWND     int
	InFlight int
	SRTT     time.Duration
}

// Subflows returns per-subflow state in channel-group order; nil for
// non-multipath connections.
func (c *Conn) Subflows() []SubflowStats {
	if !c.cfg.Multipath {
		return nil
	}
	out := make([]SubflowStats, 0, len(c.subs))
	for i := range c.subs {
		sf := &c.subs[i]
		out = append(out, SubflowStats{
			Channel:  sf.name,
			CWND:     sf.alg.CWND(),
			InFlight: sf.inflight,
			SRTT:     sf.srtt,
		})
	}
	return out
}
