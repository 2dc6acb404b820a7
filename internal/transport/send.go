package transport

import (
	"slices"
	"time"

	"hvc/internal/cc"
	"hvc/internal/packet"
	"hvc/internal/telemetry"
)

// message is a queued application message on the send side.
type message struct {
	owner  packet.FlowID // see arena
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

// A chunk is one fragment and, while it sits in sentOrder, its packet's
// tracking record: sendChunk stamps the fields below frag, valid until
// an ack or loss takes the chunk out of the flight. A lost chunk goes
// back to the scheduler (requeue) and is stamped afresh when resent.
type chunk struct {
	owner packet.FlowID // see arena
	frag  fragment

	seq    uint64
	sub    *subflow // the subflow that sent it
	size   int      // payload bytes
	sentAt time.Duration
	// copies lists the channels that carried a copy, in send order. The
	// arena points it at inl, so one or two copies need no array; a third
	// spills through append. Never reset a chunk with a struct literal:
	// that would cut copies loose from inl.
	copies              []chanCopy
	inl                 [2]chanCopy
	deliveredAtSent     int64
	deliveredTimeAtSent time.Duration
	appLimited          bool
}

// A chanCopy is one channel's copy of an in-flight packet: the channel's
// interned ID and the packet's send index on it, for loss detection.
type chanCopy struct {
	id  int
	idx int64
}

// A fifo is a queue over a reused array: pop advances a head index, and
// push slides the backlog back over a full array's popped half (if it is
// one) rather than grow: a steady stream allocates nothing.
type fifo[T any] struct {
	q    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }

func (f *fifo[T]) front() T { return f.q[f.head] }

func (f *fifo[T]) push(x T) {
	if len(f.q) == cap(f.q) && 2*f.head >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, x)
}

func (f *fifo[T]) pop() T {
	var zero T
	x := f.q[f.head]
	f.q[f.head] = zero
	f.head++
	return x
}

// scheduler orders outgoing work: strict priority across messages,
// FIFO within a priority level, retransmissions ahead of fresh data at
// the same priority. Messages and chunks are the arena's (rec).
type scheduler struct {
	rec  *arena
	flow packet.FlowID
	// retx holds chunks awaiting retransmission, in loss-detection order.
	retx fifo[*chunk]
	// msgs holds the unsent messages of every priority the connection
	// has used, ascending; an idle level keeps its place and its array.
	msgs []prioQueue
	// queued counts the messages across all levels, so empty() — asked
	// once per packet — need not walk them.
	queued int
}

type prioQueue struct {
	prio packet.Priority
	fifo[*message]
}

func (s *scheduler) push(m *message) {
	i := 0
	for i < len(s.msgs) && s.msgs[i].prio < m.prio {
		i++
	}
	if i == len(s.msgs) || s.msgs[i].prio != m.prio {
		s.msgs = slices.Insert(s.msgs, i, prioQueue{prio: m.prio})
	}
	s.msgs[i].push(m)
	s.queued++
}

func (s *scheduler) empty() bool { return s.retx.len() == 0 && s.queued == 0 }

// next carves the next chunk of at most packet.MaxPayload bytes, or nil
// when idle.
func (s *scheduler) next(unreliable bool) *chunk {
	if s.retx.len() > 0 {
		return s.retx.pop()
	}
	for i := range s.msgs {
		q := &s.msgs[i]
		if q.len() == 0 {
			continue
		}
		m := q.front()
		n := min(m.size-m.offset, packet.MaxPayload)
		ch := s.rec.newChunk(s.flow)
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
			q.pop()
			s.queued--
			s.rec.freeMsg(s.flow, m)
		}
		return ch
	}
	return nil
}

// discard returns everything queued to the arena, for Close.
func (s *scheduler) discard() {
	for s.retx.len() > 0 {
		s.rec.freeChunk(s.flow, s.retx.pop())
	}
	for i := range s.msgs {
		for q := &s.msgs[i]; q.len() > 0; {
			s.rec.freeMsg(s.flow, q.pop())
		}
	}
	s.queued = 0
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
		ch := c.sched.next(c.cfg.Unreliable)
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
	size := ch.frag.length
	wire := size + packet.HeaderBytes
	p := c.newPacket(packet.Data, wire)
	c.nextSeq++
	seq := c.nextSeq
	p.Seq = seq
	p.Priority = ch.frag.prio
	p.MsgID = ch.frag.msgID
	p.MsgRemaining = ch.frag.total - ch.frag.offset - ch.frag.length
	// The packet owns a copy of the fragment in a recycled payload box.
	frag := c.ep.fragBox(p)
	*frag = ch.frag
	p.Payload = frag

	// transmit takes p; from here on seq, size and wire describe it.
	c.ep.carried = c.transmit(sf, p, c.ep.carried[:0])
	carried := c.ep.carried
	c.stats.BytesSent += int64(size)
	if c.tracer.Enabled() {
		c.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerTransport, Name: telemetry.EvSend,
			Channel: telemetry.JoinNames(carried), Flow: uint32(c.flow),
			Seq: seq, Msg: ch.frag.msgID, Bytes: size,
		})
		c.tracer.Count("transport_sent_bytes_total", float64(size), "flow", flowLabel(c.flow))
	}

	if c.cfg.Unreliable {
		// Fire and forget; entry drops are just loss, and the chunk is
		// done the moment it leaves (no retransmission state).
		c.rec.freeChunk(c.flow, ch)
		return true
	}

	ch.seq = seq
	ch.sub = sf
	ch.size = size
	ch.sentAt = now
	ch.deliveredAtSent = c.delivered
	ch.deliveredTimeAtSent = c.deliveredTime
	for _, name := range carried {
		id := c.chanID(name)
		c.sentIndex[id]++
		ch.copies = append(ch.copies, chanCopy{id, c.sentIndex[id]})
	}
	c.bytesInFlight += size
	sf.inflight += size
	sf.alg.OnSent(now, size)
	ch.appLimited = c.sched.empty()

	if rate := sf.alg.PacingRate(); rate > 0 {
		interval := time.Duration(float64(wire) * 8 / rate * float64(time.Second))
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
		c.requeue(ch)
		c.notifyLoss(sf, now, size)
		return false
	}
	c.appendSent(ch)
	c.armRTO()
	return true
}

// appendSent adds a freshly sent packet's record at the tail of the
// in-flight set. Acks retire records from the front by advancing the
// slice (closeSentGap), so the live window drifts toward the end of its
// backing array. When it gets there it slides back to the start — of
// the same array if the window fills at most half of it, else of the
// smallest array the endpoint's arena has free that holds twice as many
// slots (at least 64), made only if none does, so that the next time it
// will; the array it outgrew goes back to the arena. A slide moves at
// most as many records as it frees slots, so appends stay O(1)
// amortised, and a flight that has stopped growing allocates nothing.
// The array is only lent: releaseWindow returns it whenever the flight
// drains, so the endpoint's next connection grows into it for free.
func (c *Conn) appendSent(ch *chunk) {
	if len(c.sentOrder) == cap(c.sentOrder) {
		old := c.sentBase[:cap(c.sentBase)]
		base := old
		if len(old) == 0 || 2*len(c.sentOrder) > len(old) {
			base = c.rec.newWindow(max(2*len(old), 64))
			base = base[:cap(base)]
		}
		n := copy(base, c.sentOrder)
		clear(c.sentOrder) // never overlaps base[:n]: the window was in the back half, or in the old array
		if len(base) > len(old) {
			c.rec.freeWindow(old) // the window moved out, and nothing else was in it
		}
		c.sentBase, c.sentOrder = base[:0], base[:n]
	}
	c.sentOrder = append(c.sentOrder, ch)
}

// releaseWindow hands an empty flight's array back to the arena. The
// slots it held are nil already: closeSentGap clears what it vacates,
// and the callers that drop a whole flight clear it first.
func (c *Conn) releaseWindow() {
	c.rec.freeWindow(c.sentBase)
	c.sentBase, c.sentOrder = nil, nil
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
		d = c.srtt + 4*c.rttvar + maxAckDelay
	}
	if d < minRTO {
		d = minRTO
	}
	d <<= c.rtoBackoff
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

func (c *Conn) armRTO() {
	if len(c.sentOrder) != 0 && c.rtoTimer.Active() {
		return
	}
	c.restartRTO()
}

// restartRTO times the retransmission timeout from now — pushing a
// running timer out in place — or, when nothing is outstanding, stops it
// and returns the drained flight's array.
func (c *Conn) restartRTO() {
	if len(c.sentOrder) == 0 {
		c.rtoTimer.Stop()
		c.releaseWindow()
		return
	}
	c.loop.Reset(&c.rtoTimer, c.rto(), c.onRTOFn)
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
	for _, ch := range c.sentOrder {
		ch.sub.lostBytes += ch.size
		c.requeue(ch)
	}
	clear(c.sentOrder)
	c.releaseWindow()
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

// requeue returns an in-flight packet to the scheduler: its bytes come
// off the connection's and its subflow's in-flight counts, its copies
// are dropped, and the chunk itself, still the flow's, joins the
// retransmission queue. The caller removes ch from sentOrder.
func (c *Conn) requeue(ch *chunk) {
	c.holds(&ch.owner)
	c.bytesInFlight -= ch.size
	ch.sub.inflight -= ch.size
	c.stats.Retransmits++
	if c.tracer.Enabled() {
		names := c.ep.carried[:0] // the copies' channels, in send order
		for _, cp := range ch.copies {
			names = append(names, c.chanNames[cp.id])
		}
		c.ep.carried = names
		c.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerTransport, Name: telemetry.EvRetransmit,
			Channel: telemetry.JoinNames(names), Flow: uint32(c.flow),
			Seq: ch.seq, Msg: ch.frag.msgID, Bytes: ch.size,
		})
		c.tracer.Count("transport_retransmits_total", 1, "flow", flowLabel(c.flow))
	}
	ch.sub, ch.copies = nil, ch.copies[:0]
	c.sched.retx.push(ch)
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
