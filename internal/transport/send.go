package transport

import (
	"time"

	"hvc/internal/cc"
	"hvc/internal/packet"
	"hvc/internal/telemetry"
)

// message is a queued application message on the send side.
type message struct {
	id     uint64
	stream uint32
	prio   packet.Priority
	size   int
	data   any
	sentAt time.Duration
	offset int // next byte to packetize
}

// fragment is the wire payload of one data packet: a contiguous byte
// range of a message. The receiver reassembles fragments by (MsgID,
// Offset); retransmissions carry fresh sequence numbers but identical
// fragment coordinates.
type fragment struct {
	stream     uint32
	msgID      uint64
	offset     int
	length     int
	total      int
	prio       packet.Priority
	sentAt     time.Duration // when the message entered the send queue
	data       any           // attached to the final fragment only
	unreliable bool
}

// chunk pairs a fragment with retransmission bookkeeping.
type chunk struct {
	frag fragment
}

// scheduler orders outgoing work: strict priority across messages,
// FIFO within a priority level, retransmissions ahead of fresh data at
// the same priority. It also owns the connection's message and chunk
// free lists, so steady-state sending recycles both.
type scheduler struct {
	// retx holds chunks awaiting retransmission, in loss-detection
	// order.
	retx []*chunk
	// msgs holds partially sent messages per priority bucket.
	msgs map[packet.Priority][]*message
	// prios tracks nonempty buckets in ascending priority.
	prios []packet.Priority
	// queued counts the messages across all buckets, so empty() — asked
	// once per packet — need not walk the map.
	queued int

	freeMsgs   []*message
	freeChunks []*chunk
}

func newScheduler() *scheduler {
	return &scheduler{msgs: make(map[packet.Priority][]*message)}
}

// newMsg returns a recycled (or fresh) zeroed message.
func (s *scheduler) newMsg() *message {
	if n := len(s.freeMsgs); n > 0 {
		m := s.freeMsgs[n-1]
		s.freeMsgs[n-1] = nil
		s.freeMsgs = s.freeMsgs[:n-1]
		return m
	}
	return &message{}
}

// freeMsg recycles a fully packetized message.
func (s *scheduler) freeMsg(m *message) {
	*m = message{}
	s.freeMsgs = append(s.freeMsgs, m)
}

// newChunk returns a recycled (or fresh) chunk; the caller overwrites
// frag entirely.
func (s *scheduler) newChunk() *chunk {
	if n := len(s.freeChunks); n > 0 {
		ch := s.freeChunks[n-1]
		s.freeChunks[n-1] = nil
		s.freeChunks = s.freeChunks[:n-1]
		return ch
	}
	return new(chunk)
}

// freeChunk recycles a chunk whose data no component references any
// more: its packet was acknowledged, or the flow is unreliable and the
// packet left the sender. A chunk awaiting retransmission must not be
// freed — it is owned by the retx queue.
func (s *scheduler) freeChunk(ch *chunk) {
	ch.frag = fragment{} // release the message data reference
	s.freeChunks = append(s.freeChunks, ch)
}

func (s *scheduler) push(m *message) {
	q := s.msgs[m.prio]
	if len(q) == 0 {
		s.insertPrio(m.prio)
	}
	s.msgs[m.prio] = append(q, m)
	s.queued++
}

func (s *scheduler) insertPrio(p packet.Priority) {
	for i, q := range s.prios {
		if q == p {
			return
		}
		if q > p {
			s.prios = append(s.prios[:i], append([]packet.Priority{p}, s.prios[i:]...)...)
			return
		}
	}
	s.prios = append(s.prios, p)
}

func (s *scheduler) pushRetx(ch *chunk) { s.retx = append(s.retx, ch) }

func (s *scheduler) empty() bool { return len(s.retx) == 0 && s.queued == 0 }

// next carves the next chunk of at most mss bytes, or nil when idle.
func (s *scheduler) next(mss int, unreliable bool) *chunk {
	if len(s.retx) > 0 {
		ch := s.retx[0]
		s.retx = s.retx[1:]
		return ch
	}
	for len(s.prios) > 0 {
		p := s.prios[0]
		q := s.msgs[p]
		if len(q) == 0 {
			s.prios = s.prios[1:]
			continue
		}
		m := q[0]
		n := m.size - m.offset
		if n > mss {
			n = mss
		}
		ch := s.newChunk()
		ch.frag = fragment{
			stream:     m.stream,
			msgID:      m.id,
			offset:     m.offset,
			length:     n,
			total:      m.size,
			prio:       m.prio,
			sentAt:     m.sentAt,
			unreliable: unreliable,
		}
		m.offset += n
		if m.offset >= m.size {
			ch.frag.data = m.data
			s.msgs[p] = q[1:]
			s.queued--
			s.freeMsg(m)
		}
		return ch
	}
	return nil
}

// sentInfo tracks one in-flight data packet. chIDs/chIdx are parallel
// slices: the interned ID of each channel that carried a copy, and the
// packet's per-channel send index on it (for loss detection).
type sentInfo struct {
	seq                 uint64
	sub                 *subflow // the subflow that sent it
	size                int      // payload bytes
	chunk               *chunk
	sentAt              time.Duration
	channels            []string // channels that carried copies
	chIDs               []int
	chIdx               []int64
	deliveredAtSent     int64
	deliveredTimeAtSent time.Duration
	appLimited          bool
}

// trySend transmits as much queued data as the subflows' congestion
// windows and pacing allow. An unreliable connection has neither and
// sends everything at once on its one subflow.
func (c *Conn) trySend() {
	if c.closed || !c.established {
		return
	}
	for !c.sched.empty() {
		sf := &c.subs[0]
		if !c.cfg.Unreliable {
			if sf = c.pickSubflow(); sf == nil {
				return
			}
		}
		ch := c.sched.next(c.cfg.MSS, c.cfg.Unreliable)
		if ch == nil {
			return
		}
		if !c.sendChunk(sf, ch) {
			c.backoffSend()
			return
		}
	}
}

// entryDropBackoff is how long a sender waits after a channel refused a
// packet at entry before offering more data.
const entryDropBackoff = 10 * time.Millisecond

// backoffSend schedules another send attempt after a channel refused a
// packet at entry. The queue is full, so retrying at the same instant
// cannot succeed (nothing drains in zero time); normally the sender
// backs off briefly, the local-queue analogue of a blocked qdisc. When
// every channel of the group is down, though, no amount of polling can
// succeed either — the connection parks itself on the group's
// wake-on-up list and retries the instant an outage clears, so a
// blackout costs zero retry events however long it lasts.
func (c *Conn) backoffSend() {
	if c.ep.group.AllDown() {
		if !c.wakePending {
			c.wakePending = true
			c.ep.group.WakeOnUp(c.wakeFn)
		}
		return
	}
	if !c.retryTimer.Active() {
		c.retryTimer = c.loop.After(entryDropBackoff, c.trySendFn)
	}
}

// sendChunk packetizes one chunk and transmits it on sf, reporting
// whether any channel accepted the packet.
func (c *Conn) sendChunk(sf *subflow, ch *chunk) bool {
	now := c.loop.Now()
	p := c.newPacket(packet.Data, ch.frag.length+packet.HeaderBytes)
	c.nextSeq++
	p.Seq = c.nextSeq
	p.Priority = ch.frag.prio
	p.MsgID = ch.frag.msgID
	p.MsgRemaining = ch.frag.total - ch.frag.offset - ch.frag.length
	// The packet owns a copy of the fragment in a recycled payload box.
	frag := c.ep.fragBox(p)
	*frag = ch.frag
	p.Payload = frag

	var carried []string
	var info *sentInfo
	if c.cfg.Unreliable {
		c.ep.ctrlNames = c.transmit(sf, p, c.ep.ctrlNames[:0])
		carried = c.ep.ctrlNames
	} else {
		info = c.newSentInfo()
		info.channels = c.transmit(sf, p, info.channels[:0])
		carried = info.channels
	}
	c.stats.BytesSent += int64(ch.frag.length)
	if c.tracer.Enabled() {
		c.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerTransport, Name: telemetry.EvSend,
			Channel: telemetry.JoinNames(carried), Flow: uint32(c.flow),
			Seq: p.Seq, Msg: p.MsgID, Bytes: ch.frag.length,
		})
		c.tracer.Count("transport_sent_bytes_total", float64(ch.frag.length), "flow", flowLabel(c.flow))
	}

	if c.cfg.Unreliable {
		// Fire and forget; entry drops are just loss, and the chunk is
		// done the moment it leaves (no retransmission state).
		c.sched.freeChunk(ch)
		return true
	}

	size := ch.frag.length
	info.seq = p.Seq
	info.sub = sf
	info.size = size
	info.chunk = ch
	info.sentAt = now
	info.deliveredAtSent = c.delivered
	info.deliveredTimeAtSent = c.deliveredTime
	for _, name := range carried {
		id := c.chanID(name)
		c.sentIndex[id]++
		info.chIDs = append(info.chIDs, id)
		info.chIdx = append(info.chIdx, c.sentIndex[id])
	}
	c.bytesInFlight += size
	sf.inflight += size
	sf.alg.OnSent(now, size)
	info.appLimited = c.sched.empty()

	if rate := sf.alg.PacingRate(); rate > 0 {
		interval := time.Duration(float64(p.Size) * 8 / rate * float64(time.Second))
		if sf.pacingNext < now {
			sf.pacingNext = now
		}
		sf.pacingNext += interval
	}
	if len(carried) == 0 {
		// Every copy was dropped at channel entry: the packet will
		// never be acked, and no later ack on any channel can pass
		// it. Declare it lost at once — entry drops are queue
		// overflow, i.e. a congestion signal.
		c.requeue(info)
		c.notifyLoss(sf, now, size)
		return false
	}
	c.appendSent(info)
	c.armRTO()
	return true
}

// appendSent adds a freshly sent packet's record at the tail of the
// in-flight set. Acks retire records from the front by advancing the
// slice (closeSentGap), so the live window drifts toward the end of its
// backing array. When it gets there it slides back to the start — of
// the same array if the window fills at most half of it, else of one
// twice the size, so that the next time it will. A slide moves at most
// as many records as it frees slots, so appends stay O(1) amortised,
// and a flight that has stopped growing allocates nothing.
func (c *Conn) appendSent(info *sentInfo) {
	if len(c.sentOrder) == cap(c.sentOrder) {
		base := c.sentBase[:cap(c.sentBase)]
		if 2*len(c.sentOrder) > len(base) {
			base = make([]*sentInfo, max(2*len(base), 64))
		}
		n := copy(base, c.sentOrder)
		clear(c.sentOrder) // never overlaps base[:n]: the window was in the back half, or in the old array
		c.sentBase, c.sentOrder = base[:0], base[:n]
	}
	c.sentOrder = append(c.sentOrder, info)
}

// closeSentGap drops the dead span sentOrder[w:r] — records just acked
// or declared lost, already handed on by the caller — by moving the
// shorter live side across it: the survivors below the span up to meet
// the tail, or the tail down to meet them. Dense acks retire the head
// of the flight (w == 0), which moves nothing at all. Vacated slots
// are cleared so no recycled record stays reachable from the backing
// array.
func (c *Conn) closeSentGap(w, r int) {
	if w == r {
		return
	}
	order := c.sentOrder
	if w <= len(order)-r {
		copy(order[r-w:r], order[:w])
		clear(order[:r-w])
		c.sentOrder = order[r-w:]
		return
	}
	n := w + copy(order[w:], order[r:])
	clear(order[n:])
	c.sentOrder = order[:n]
}

// rto returns the current retransmission timeout.
func (c *Conn) rto() time.Duration {
	var d time.Duration
	if c.srtt == 0 {
		d = time.Second
	} else {
		d = c.srtt + 4*c.rttvar + c.cfg.MaxAckDelay
	}
	if d < c.cfg.MinRTO {
		d = c.cfg.MinRTO
	}
	d <<= c.rtoBackoff
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

func (c *Conn) armRTO() {
	if len(c.sentOrder) == 0 {
		c.rtoTimer.Stop()
		return
	}
	if c.rtoTimer.Active() {
		return
	}
	c.rtoTimer = c.loop.After(c.rto(), c.onRTOFn)
}

func (c *Conn) onRTO() {
	if c.closed {
		return
	}
	if len(c.sentOrder) == 0 {
		// Nothing outstanding, but the scheduler may still hold
		// requeued chunks (a long outage drains the in-flight set
		// through entry drops faster than the retry timer refills it).
		// Kick the send path so recovery never depends on a timer that
		// might not be pending.
		c.trySend()
		return
	}
	c.stats.RTOs++
	c.rtoBackoff++
	if c.rtoBackoff > 6 {
		c.rtoBackoff = 6
	}
	c.tracer.Emit(telemetry.Event{
		Layer: telemetry.LayerTransport, Name: telemetry.EvRTO,
		Flow: uint32(c.flow), Value: float64(c.rtoBackoff),
	})
	c.tracer.Count("transport_rtos_total", 1, "flow", flowLabel(c.flow))
	// Declare everything outstanding lost and rebuild from the model.
	for _, info := range c.sentOrder {
		info.sub.lostBytes += info.size
		c.requeue(info)
	}
	c.sentOrder = c.sentOrder[:0]
	for i := range c.subs {
		sf := &c.subs[i]
		if sf.lostBytes == 0 {
			continue
		}
		sf.alg.OnLoss(cc.LossEvent{
			Now:     c.loop.Now(),
			Bytes:   sf.lostBytes,
			Timeout: true,
		})
		sf.lostBytes = 0
		c.traceCC(sf)
	}
	c.rtoTimer = c.loop.After(c.rto(), c.onRTOFn)
	c.trySend()
}

// requeue returns an in-flight packet's chunk to the scheduler, takes
// its bytes off the connection's and its subflow's in-flight counts,
// and recycles its tracking record; the caller removes info from
// sentOrder and must not use it after.
func (c *Conn) requeue(info *sentInfo) {
	c.bytesInFlight -= info.size
	info.sub.inflight -= info.size
	c.stats.Retransmits++
	c.sched.pushRetx(info.chunk)
	if c.tracer.Enabled() {
		c.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerTransport, Name: telemetry.EvRetransmit,
			Channel: telemetry.JoinNames(info.channels), Flow: uint32(c.flow),
			Seq: info.seq, Msg: info.chunk.frag.msgID, Bytes: info.size,
		})
		c.tracer.Count("transport_retransmits_total", 1, "flow", flowLabel(c.flow))
	}
	c.freeSentInfo(info)
}

// notifyLoss reports non-timeout loss to a subflow's congestion
// controller, at most once per recovery window (TCP fast-recovery
// semantics: one window reduction per flight, however many packets it
// lost).
func (c *Conn) notifyLoss(sf *subflow, now time.Duration, bytes int) {
	if c.largestAcked < sf.recoverySeq {
		return // still recovering from the previous notification
	}
	sf.recoverySeq = c.nextSeq
	sf.alg.OnLoss(cc.LossEvent{
		Now:      now,
		Bytes:    bytes,
		InFlight: sf.inflight,
	})
	c.traceCC(sf)
}
