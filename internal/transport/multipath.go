package transport

import (
	"fmt"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/packet"
)

// Multipath mode implements the MPTCP/MPQUIC-style baseline the paper
// contrasts against (§1, §3.2): one subflow per virtual channel, each
// with its own congestion controller and RTT estimator, and a min-RTT
// packet scheduler that fills whichever subflow has window space and
// the lowest smoothed RTT — the default MPTCP scheduler.
//
// This design aggregates bandwidth across channels but is blind to
// what the channels are *for*: it happily fills URLLC (whose RTT is
// always the lowest) with bulk bytes, which is exactly the behaviour
// the paper criticizes — "MPTCP ... will congest a low bandwidth
// URLLC link due to its extremely low RTT value".

// A subflow is one channel's share of a multipath connection.
type subflow struct {
	ch       *channel.Channel
	alg      cc.Algorithm
	inflight int
	srtt     time.Duration
	// recoverySeq gates loss notifications per subflow, as each
	// controller runs its own recovery.
	recoverySeq uint64
}

// initMultipath builds one subflow per channel of the endpoint's
// group. Called from newConn when cfg.Multipath is set.
func (c *Conn) initMultipath() {
	if c.cfg.NewCC == nil {
		panic("transport: Multipath requires Config.NewCC")
	}
	if c.cfg.Unreliable {
		panic("transport: Multipath is a reliable-transport mode")
	}
	c.subflows = make(map[string]*subflow)
	for _, ch := range c.ep.group.All() {
		c.subflows[ch.Name()] = &subflow{ch: ch, alg: c.cfg.NewCC()}
		c.subflowOrder = append(c.subflowOrder, ch.Name())
	}
}

// pickSubflow returns the subflow to fill next: the up subflow with
// window space and the lowest *measured* smoothed RTT. A subflow with
// no RTT sample yet — fresh, or newly recovered from an outage — must
// not win the min-RTT race on a zero srtt (it would capture the whole
// scheduler until its first ack); instead it is probed with a single
// chunk at a time until an ack measures it. The probe takes precedence
// so light traffic still reaches unmeasured paths, but with at most
// one chunk outstanding it cannot starve the measured ones. Returns
// nil when nothing is sendable.
func (c *Conn) pickSubflow() *subflow {
	var best, probe *subflow
	for _, name := range c.subflowOrder {
		sf := c.subflows[name]
		if sf.ch.Down() || sf.inflight >= sf.alg.CWND() {
			continue
		}
		if sf.srtt == 0 {
			if probe == nil && sf.inflight == 0 {
				probe = sf
			}
			continue
		}
		if best == nil || sf.srtt < best.srtt {
			best = sf
		}
	}
	if probe != nil {
		return probe
	}
	return best
}

// tryMultiSend is trySend for multipath mode.
func (c *Conn) tryMultiSend() {
	if c.closed || !c.established {
		return
	}
	for {
		if c.sched.empty() {
			return
		}
		sf := c.pickSubflow()
		if sf == nil {
			if c.ep.group.AllDown() {
				// Total blackout: park until any channel recovers, as
				// the single-path send path does.
				c.backoffSend()
			}
			return // otherwise acks (or probes completing) resume sending
		}
		ch := c.sched.next(c.cfg.MSS, false)
		if ch == nil {
			return
		}
		if !c.sendChunkOn(sf, ch) {
			c.backoffSend()
			return
		}
	}
}

// sendChunkOn transmits one chunk on a specific subflow.
func (c *Conn) sendChunkOn(sf *subflow, ch *chunk) bool {
	now := c.loop.Now()
	p := c.newPacket(packet.Data, ch.frag.length+packet.HeaderBytes)
	c.nextSeq++
	p.Seq = c.nextSeq
	p.Priority = ch.frag.prio
	p.MsgID = ch.frag.msgID
	p.MsgRemaining = ch.frag.total - ch.frag.offset - ch.frag.length
	frag := c.ep.fragBox(p)
	*frag = ch.frag
	p.Payload = frag

	accepted := sf.ch.Send(c.ep.side, p)
	size := ch.frag.length
	c.stats.BytesSent += int64(size)

	info := c.newSentInfo()
	info.seq = p.Seq
	info.size = size
	info.chunk = ch
	info.sentAt = now
	info.sub = sf
	info.deliveredAtSent = c.delivered
	info.deliveredTimeAtSent = c.deliveredTime
	if accepted {
		name := sf.ch.Name()
		info.channels = append(info.channels, name)
		id := c.chanID(name)
		c.sentIndex[id]++
		info.chIDs = append(info.chIDs, id)
		info.chIdx = append(info.chIdx, c.sentIndex[id])
	}
	c.bytesInFlight += size
	sf.inflight += size
	sf.alg.OnSent(now, size)
	info.appLimited = c.sched.empty()

	if !accepted {
		sf.inflight -= size
		c.requeue(info)
		c.notifySubflowLoss(sf, now, size, false)
		return false
	}
	c.appendSent(info)
	c.armRTO()
	return true
}

// multiAck applies one acknowledgment in multipath mode: newly acked
// bytes are grouped per subflow and each controller hears about its
// own share with its own RTT sample.
func (c *Conn) multiAck(pl *ackPayload) {
	now := c.loop.Now()
	type share struct {
		bytes  int
		newest *sentInfo
	}
	shares := make(map[*subflow]*share)
	_, newestAll := c.ackRanges(pl.ranges)
	for _, info := range c.ackedInfos {
		if info.sub == nil {
			continue
		}
		info.sub.inflight -= info.size
		s := shares[info.sub]
		if s == nil {
			s = &share{}
			shares[info.sub] = s
		}
		s.bytes += info.size
		s.newest = info
	}
	if newestAll == nil {
		return
	}
	if newestAll.seq > c.largestAcked {
		c.largestAcked = newestAll.seq
	}
	c.deliveredTime = now
	c.rtoBackoff = 0

	// Deterministic delivery order over the map.
	for _, name := range c.subflowOrder {
		sf := c.subflows[name]
		s := shares[sf]
		if s == nil {
			continue
		}
		rtt := now - s.newest.sentAt
		if sf.srtt == 0 {
			sf.srtt = rtt
		} else {
			sf.srtt = (7*sf.srtt + rtt) / 8
		}
		var rate float64
		if dt := now - s.newest.deliveredTimeAtSent; dt > 0 {
			rate = float64(c.delivered-s.newest.deliveredAtSent) * 8 / dt.Seconds()
		}
		sf.alg.OnAck(cc.AckEvent{
			Now:          now,
			RTT:          rtt,
			Bytes:        s.bytes,
			InFlight:     sf.inflight,
			DeliveryRate: rate,
			Channel:      name,
			AppLimited:   s.newest.appLimited,
		})
		if c.onRTTSample != nil {
			c.onRTTSample(now, rtt, name)
		}
	}
	// The connection-level RTT estimate feeds the shared RTO.
	c.updateRTT(now - newestAll.sentAt)

	c.recycleAcked()
	c.detectMultiLosses(now)
	c.rtoTimer.Stop()
	c.armRTO()
	c.trySend()
}

// detectMultiLosses is per-channel packet-threshold loss detection
// with per-subflow congestion notification.
func (c *Conn) detectMultiLosses(now time.Duration) {
	lost := make(map[*subflow]int)
	order := c.sentOrder
	// Send indexes are seq-ordered per channel, so nothing past the
	// largest acked seq can meet the threshold (see detectLosses).
	w, r := 0, 0
	for ; r < len(order) && order[r].seq <= c.largestAcked; r++ {
		info := order[r]
		isLost := len(info.chIDs) > 0
		for j, id := range info.chIDs {
			if c.ackedIndex[id] < info.chIdx[j]+ackAfterGap {
				isLost = false
				break
			}
		}
		if !isLost {
			order[w] = info
			w++
			continue
		}
		if info.sub != nil {
			info.sub.inflight -= info.size
			lost[info.sub] += info.size
		}
		c.requeue(info)
	}
	c.closeSentGap(w, r)
	for _, name := range c.subflowOrder {
		sf := c.subflows[name]
		if bytes := lost[sf]; bytes > 0 {
			c.notifySubflowLoss(sf, now, bytes, false)
		}
	}
}

// notifySubflowLoss reports loss to one subflow's controller, gated
// once per recovery window.
func (c *Conn) notifySubflowLoss(sf *subflow, now time.Duration, bytes int, timeout bool) {
	if timeout {
		sf.alg.OnLoss(cc.LossEvent{Now: now, Bytes: bytes, Timeout: true})
		return
	}
	if c.largestAcked < sf.recoverySeq {
		return
	}
	sf.recoverySeq = c.nextSeq
	sf.alg.OnLoss(cc.LossEvent{Now: now, Bytes: bytes, InFlight: sf.inflight})
}

// onMultiRTO handles a retransmission timeout in multipath mode.
func (c *Conn) onMultiRTO() {
	if c.closed || len(c.sentOrder) == 0 {
		return
	}
	c.stats.RTOs++
	c.rtoBackoff++
	if c.rtoBackoff > 6 {
		c.rtoBackoff = 6
	}
	lost := make(map[*subflow]int)
	for _, info := range c.sentOrder {
		if info.sub != nil {
			info.sub.inflight -= info.size
			lost[info.sub] += info.size
		}
		c.requeue(info)
	}
	c.sentOrder = c.sentOrder[:0]
	now := c.loop.Now()
	for _, name := range c.subflowOrder {
		sf := c.subflows[name]
		if bytes := lost[sf]; bytes > 0 {
			c.notifySubflowLoss(sf, now, bytes, true)
		}
	}
	c.rtoTimer = c.loop.After(c.rto(), c.onRTOFn)
	c.trySend()
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
	if c.subflows == nil {
		return nil
	}
	out := make([]SubflowStats, 0, len(c.subflowOrder))
	for _, name := range c.subflowOrder {
		sf := c.subflows[name]
		out = append(out, SubflowStats{
			Channel:  name,
			CWND:     sf.alg.CWND(),
			InFlight: sf.inflight,
			SRTT:     sf.srtt,
		})
	}
	return out
}

// multiTransmitCtrl sends control traffic (SYN/SYNACK/ACKs) in
// multipath mode. Control packets use the first subflow; MPTCP's
// initial subflow plays the same role.
func (c *Conn) multiTransmitCtrl(p *packet.Packet) {
	if len(c.subflowOrder) == 0 {
		panic(fmt.Sprintf("transport: flow %d has no subflows", c.flow))
	}
	sf := c.subflows[c.subflowOrder[0]]
	sf.ch.Send(c.ep.side, p)
}
