package transport

import (
	"math"
	"time"

	"hvc/internal/cc"
	"hvc/internal/invariant"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/telemetry"
)

// ackAfterGap triggers per-channel loss detection once this many later
// packets on the same channel have been acknowledged, mirroring TCP's
// three-duplicate-ACK rule on each channel independently.
const ackAfterGap = 3

// maxAckRanges bounds the SACK state carried per acknowledgment.
const maxAckRanges = 32

// ackPayload rides Ack packets: the receiver's highest ranges.
type ackPayload struct {
	ranges []seqRange
}

// rcvMsg is a message under reassembly on the receive side. expireFn is
// its expire method, bound when an unreliable connection first arms the
// timeout and kept across recycling, so arming allocates nothing.
type rcvMsg struct {
	owner    packet.FlowID // see arena
	conn     *Conn
	id       uint64
	expireFn func()

	stream  uint32
	prio    packet.Priority
	total   int
	got     rangeSet
	data    any
	sentAt  time.Duration
	expiry  sim.Timer
	started time.Duration
}

// rxHold is the receive-side hold behind Config.RxDelay: arriving
// packets wait in q in arrival order, each with one occurrence of
// release on the lane. The delay is constant and the clock never runs
// backwards, so due times are nondecreasing — what a sim.Lane requires —
// and Lane.Push files an occurrence under the (at, seq) key a timer set
// at the same point would get: packets are processed exactly when, and
// in the order, one timer per packet would process them, while the event
// queue holds the flow's next release only. Lane occurrences cannot be
// cancelled, so the hold outlives a Close: see release. A hold is the
// endpoint arena's (newHold), lent to its connection until the world
// ends, when Retire drains it; fn is release, bound once.
type rxHold struct {
	conn *Conn
	lane sim.Lane
	q    fifo[heldPacket]
	fn   func()
}

type heldPacket struct {
	p   *packet.Packet
	due time.Duration
}

// hold queues an arriving packet for processing cfg.RxDelay from now.
func (c *Conn) hold(p *packet.Packet) {
	h := c.rx
	if h == nil {
		h = c.rec.newHold(c)
		c.rx = h
	}
	due := c.loop.Now() + c.cfg.RxDelay
	h.q.push(heldPacket{p, due})
	h.lane.Push(due)
	c.ep.held++
}

// release is the lane's callback: the oldest held packet is due. The
// packet dies here as it would have in Endpoint.receive. A connection
// closed in the meantime ignores it (handlePacket), so what Close leaves
// held drains to the pool as it comes due.
func (h *rxHold) release() {
	c := h.conn
	held := h.q.pop()
	if invariant.Enabled() {
		if now := c.loop.Now(); held.due != now {
			invariant.Failf("transport", "rx-hold",
				"flow %d: release at %v of a packet due at %v", c.flow, now, held.due)
		}
		if h.lane.Len() != h.q.len() {
			invariant.Failf("transport", "rx-hold",
				"flow %d: %d releases pending for %d held packets", c.flow, h.lane.Len(), h.q.len())
		}
	}
	c.handlePacket(held.p)
	c.ep.pool.Put(held.p)
	c.ep.held--
}

// handleData processes one arriving data packet.
func (c *Conn) handleData(p *packet.Packet, frag *fragment) {
	isNew := c.rcvRanges.add(p.Seq)
	if !c.cfg.Unreliable {
		c.scheduleAck(p)
	}
	if !isNew {
		return // duplicate (redundant copy or spurious retransmit)
	}
	if c.doneMsgs.contains(frag.msgID) {
		// Late copy of a message already delivered or expired. The
		// seeded-bug switch falls through instead, reintroducing the
		// pre-PR 5 duplicate delivery so the chaos harness can prove its
		// detection pipeline (the exactly-once invariant in deliverMsg
		// is the independent check that must catch it).
		if !invariant.BugEnabled(invariant.BugDupDeliver) {
			return
		}
	}

	rm, ok := c.rcvMsgs[frag.msgID]
	if !ok {
		rm = c.rec.newRcvMsg(c.flow)
		rm.stream = frag.stream
		rm.prio = frag.prio
		rm.total = frag.total
		rm.sentAt = frag.sentAt
		rm.started = c.loop.Now()
		c.rcvMsgs[frag.msgID] = rm
		if c.cfg.Unreliable {
			rm.conn, rm.id = c, frag.msgID
			if rm.expireFn == nil {
				rm.expireFn = rm.expire
			}
			// The handle survives recycling with the record: a timer
			// stopped at delivery and still queued is revived in place.
			c.loop.Reset(&rm.expiry, c.cfg.MsgTimeout, rm.expireFn)
		}
	}
	if frag.length > 0 {
		newBytes := rm.got.addRange(uint64(frag.offset), uint64(frag.offset+frag.length-1))
		c.stats.BytesReceived += int64(newBytes)
	}
	if frag.data != nil {
		rm.data = frag.data
	}
	if rm.total > 0 && rm.got.covered(0, uint64(rm.total-1)) {
		c.deliverMsg(frag.msgID, rm)
	}
}

func (c *Conn) deliverMsg(id uint64, rm *rcvMsg) {
	// Exactly-once delivery is a standing property, checked here
	// independently of the handleData dedup paths that are supposed to
	// uphold it: a message ID already marked done must never complete
	// reassembly a second time, whatever combination of retransmission,
	// replication, and outage produced the second copy.
	if invariant.Enabled() && c.doneMsgs.contains(id) {
		invariant.Failf("transport", "exactly-once",
			"flow %d delivered message %d twice", c.flow, id)
	}
	delete(c.rcvMsgs, id)
	c.doneMsgs.add(id)
	rm.expiry.Stop()
	c.stats.MsgsDelivered++
	m := Message{
		ID:          id,
		Stream:      rm.stream,
		Priority:    rm.prio,
		Size:        rm.total,
		Data:        rm.data,
		SentAt:      rm.sentAt,
		DeliveredAt: c.loop.Now(),
	}
	c.rec.freeRcvMsg(c.flow, rm)
	if c.onMessage == nil {
		return
	}
	c.onMessage(c, m)
}

// expire is the timeout of an incomplete unreliable message; delivery
// and Close stop the timer, so it only fires on a record still live.
func (rm *rcvMsg) expire() {
	c := rm.conn
	delete(c.rcvMsgs, rm.id)
	c.doneMsgs.add(rm.id)
	c.stats.MsgsExpired++
	c.rec.freeRcvMsg(c.flow, rm)
}

// scheduleAck decides when to acknowledge: immediately on reordering
// or when ackEvery packets are pending, otherwise within maxAckDelay.
func (c *Conn) scheduleAck(p *packet.Packet) {
	c.ackPending++
	outOfOrder := p.Seq != c.rcvRanges.max() || len(c.rcvRanges.rs) > 1
	if outOfOrder || c.ackPending >= ackEvery {
		c.sendAck()
		return
	}
	if !c.ackTimer.Active() {
		c.loop.Reset(&c.ackTimer, maxAckDelay, c.sendAckFn)
	}
}

// sendAck emits the receiver's current SACK state.
func (c *Conn) sendAck() {
	if c.closed || c.rcvRanges.empty() {
		return
	}
	c.ackPending = 0
	c.ackTimer.Stop()
	p := c.newPacket(packet.Ack, 0)
	pl := c.ep.ackBox(p)
	if cap(pl.ranges) < maxAckRanges {
		pl.ranges = make([]seqRange, 0, maxAckRanges) // once, not grown a range at a time
	}
	pl.ranges = c.rcvRanges.appendTail(pl.ranges[:0], maxAckRanges)
	p.Size = packet.HeaderBytes + 4*len(pl.ranges)
	p.Payload = pl
	c.transmitCtrl(p)
}

// handleAck processes acknowledgment state from the peer: the newly
// acked bytes are grouped per subflow, each subflow's controller hears
// about its own share with its own RTT sample, and the connection's
// RTT estimate — which feeds the one RTO — takes the newest sample
// overall.
func (c *Conn) handleAck(_ *packet.Packet, pl *ackPayload) {
	now := c.loop.Now()
	newest := c.ackRanges(pl.ranges)
	if newest == nil {
		return // pure duplicate: nothing new
	}
	if newest.seq > c.largestAcked {
		c.largestAcked = newest.seq
	}
	c.deliveredTime = now
	c.rtoBackoff = 0
	c.updateRTT(now - newest.sentAt)

	for i := range c.subs {
		if sf := &c.subs[i]; sf.ackNewest != nil {
			c.subflowAcked(sf, now)
		}
	}

	c.recycleAcked()
	c.detectLosses(now)

	// Fresh forward progress: push the timeout out.
	c.restartRTO()
	c.trySend()
}

// subflowAcked consumes the share of the current ack that ackRanges
// left in sf's scratch: one RTT sample from the newest record, the
// observers, and the controller's OnAck.
func (c *Conn) subflowAcked(sf *subflow, now time.Duration) {
	newest, bytes := sf.ackNewest, sf.ackBytes
	sf.ackNewest, sf.ackBytes = nil, 0

	rtt := now - newest.sentAt
	if sf.srtt == 0 {
		sf.srtt = rtt
	} else {
		sf.srtt = (7*sf.srtt + rtt) / 8
	}
	chName := ""
	if len(newest.copies) == 1 {
		chName = c.chanNames[newest.copies[0].id]
	}
	if c.onRTTSample != nil {
		c.onRTTSample(now, rtt, chName)
	}
	if c.tracer.Enabled() {
		c.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerTransport, Name: telemetry.EvAck, Channel: sf.name,
			Flow: uint32(c.flow), Seq: newest.seq, Bytes: bytes,
		})
		c.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerTransport, Name: telemetry.EvRTT,
			Channel: chName, Flow: uint32(c.flow), Seq: newest.seq, Dur: rtt,
		})
		c.tracer.Count("transport_acked_bytes_total", float64(bytes), "flow", flowLabel(c.flow))
	}

	var rate float64
	if dt := now - newest.deliveredTimeAtSent; dt > 0 {
		rate = float64(c.delivered-newest.deliveredAtSent) * 8 / dt.Seconds()
	}
	sf.alg.OnAck(cc.AckEvent{
		Now:          now,
		RTT:          rtt,
		Bytes:        bytes,
		InFlight:     sf.inflight,
		DeliveryRate: rate,
		Channel:      chName,
		AppLimited:   newest.appLimited,
	})
	c.traceCC(sf)
}

// ackRanges retires every in-flight packet the ack's ranges cover: the
// covered records leave sentOrder for acked (ascending seq, so the
// last is the newest), and the accounting is settled for each — bytes
// in flight and delivered, the per-channel highest acked send index,
// and the sending subflow's in-flight count and share of this ack
// (ackBytes, ackNewest). It returns the newest acked record, nil for a
// pure duplicate. The caller consumes the subflows' shares, then
// recycles acked once the controllers have heard about them.
func (c *Conn) ackRanges(ranges []seqRange) (newest *chunk) {
	c.acked = c.acked[:0]
	c.resolveAcked(ranges)
	var bytes int
	for _, ch := range c.acked {
		c.holds(&ch.owner)
		bytes += ch.size
		for _, cp := range ch.copies {
			if cp.idx > c.ackedIndex[cp.id] {
				c.ackedIndex[cp.id] = cp.idx
			}
		}
		sf := ch.sub
		sf.inflight -= ch.size
		sf.ackBytes += ch.size
		sf.ackNewest = ch // ascending: the last acked is the newest
	}
	c.bytesInFlight -= bytes
	c.delivered += int64(bytes)
	c.stats.BytesAcked += int64(bytes)
	if n := len(c.acked); n > 0 {
		newest = c.acked[n-1]
	}
	return newest
}

// resolveAcked moves the records covered by ranges (ascending by lo and
// by hi, as rangeSet produces them) from sentOrder to acked.
// sentOrder is strictly ascending by seq, so the records one range
// covers are one contiguous span, and because the ranges ascend too,
// that span lies wholly after the previous range's: two searches
// (seqIndex) over the not-yet-examined suffix find it exactly. Only the
// search probes and the spans themselves are read, so a range that
// reaches into the flight costs O(log flight + the records it retires)
// however deep the window is, two probes when it falls in a hole.
//
// Ranges wholly below the flight are not looked at: retransmissions
// take fresh sequence numbers, so a receiver's holes never fill, and
// after a flow's first loss every ack repeats up to maxAckRanges ranges
// of which all but the last few lie below the oldest packet still
// outstanding. One bisection over the his (firstRangeReaching) finds
// where the live ones start, so an ack costs O(log ranges) plus the
// ranges that reach the flight.
func (c *Conn) resolveAcked(ranges []seqRange) {
	order := c.sentOrder
	if len(order) == 0 {
		return
	}
	// order[:w] holds the survivors of order[:r], compacted.
	w, r := 0, 0
	for _, rg := range ranges[firstRangeReaching(ranges, order[0].seq):] {
		if r == len(order) {
			break
		}
		lo := r + seqIndex(order[r:], rg.lo)
		hi := len(order)
		if rg.hi < math.MaxUint64 {
			hi = lo + seqIndex(order[lo:], rg.hi+1)
		}
		w += copy(order[w:], order[r:lo])
		c.acked = append(c.acked, order[lo:hi]...)
		r = hi
	}
	c.closeSentGap(w, r)
}

// seqIndex returns the index of the first record in order (ascending
// by seq) whose seq is at least seq, len(order) when there is none. It
// gallops out from the front before bisecting, so the cost is
// logarithmic in the answer rather than in len(order): acks mostly
// retire the few oldest packets, and those records are the only ones
// the search then touches.
func seqIndex(order []*chunk, seq uint64) int {
	// Every record before lo is below seq; none at or after hi is.
	lo, hi := 0, len(order)
	for step := 1; lo+step <= len(order); step <<= 1 {
		if order[lo+step-1].seq >= seq {
			hi = lo + step - 1
			break
		}
		lo += step
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if order[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// recycleAcked returns this ack event's retired chunks to the arena. An
// acknowledged chunk can never be retransmitted again, so it is dead
// once the controller has been told about the ack.
func (c *Conn) recycleAcked() {
	for i, ch := range c.acked {
		c.rec.freeChunk(c.flow, ch)
		c.acked[i] = nil
	}
	c.acked = c.acked[:0]
}

// updateRTT folds one sample into the RFC 6298 estimators.
func (c *Conn) updateRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
		return
	}
	diff := c.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

// detectLosses applies the per-channel packet-threshold rule: an
// outstanding packet is lost once ackAfterGap later packets have been
// acknowledged on every channel that carried a copy of it. Each
// subflow's controller is told about its own losses.
//
// Per-channel send indexes are assigned in seq order, so a packet with
// seq above largestAcked has a higher index on every channel it rode
// than any acked packet does — it can never satisfy the threshold.
// The scan therefore stops at the first such packet and never touches
// the tail, so the common dense-ack case costs O(packets at or below
// largestAcked), not O(flight size).
func (c *Conn) detectLosses(now time.Duration) {
	order := c.sentOrder
	w, r := 0, 0
	for ; r < len(order) && order[r].seq <= c.largestAcked; r++ {
		ch := order[r]
		lost := len(ch.copies) > 0
		for _, cp := range ch.copies {
			if c.ackedIndex[cp.id] < cp.idx+ackAfterGap {
				lost = false
				break
			}
		}
		if !lost {
			order[w] = ch
			w++
			continue
		}
		ch.sub.lostBytes += ch.size
		c.requeue(ch)
	}
	c.closeSentGap(w, r)
	for i := range c.subs {
		if sf := &c.subs[i]; sf.lostBytes > 0 {
			bytes := sf.lostBytes
			sf.lostBytes = 0
			c.notifyLoss(sf, now, bytes)
		}
	}
}
