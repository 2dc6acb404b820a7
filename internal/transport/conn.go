package transport

import (
	"fmt"
	"strconv"
	"time"

	"hvc/internal/cc"
	"hvc/internal/invariant"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/telemetry"
)

// Config parameterizes one connection.
type Config struct {
	// CC is the congestion-control algorithm of a single-path
	// connection's one subflow; required for reliable connections,
	// ignored for unreliable and multipath ones.
	CC cc.Algorithm
	// Steer picks the channel for every packet of a single-path
	// connection's one subflow, data and control alike; required unless
	// Multipath.
	Steer steering.Policy
	// FlowPriority is stamped on every packet of the flow; steering
	// policies use it to keep bulk flows off constrained channels.
	FlowPriority packet.Priority
	// Unreliable disables acknowledgments, retransmission, and
	// congestion control: a best-effort message flow for real-time
	// media. Senders pace themselves (the video app sends one frame
	// per tick).
	Unreliable bool
	// Multipath builds the MPTCP-style subflow set instead: one subflow
	// pinned to each channel of the group, scheduled min-RTT-first,
	// control packets on the first. Steer and CC are unused (the
	// scheduler replaces the one, NewCC the other).
	Multipath bool
	// NewCC builds the congestion controller of each subflow of a
	// Multipath connection; required for those, unused otherwise.
	NewCC func() cc.Algorithm
	// MsgTimeout expires incomplete unreliable messages; 0 means 2 s.
	MsgTimeout time.Duration
	// RxDelay holds every packet arriving for this connection for the
	// given extra time before processing, emulating per-flow path-length
	// differences (e.g. a distant peer) on a shared channel set. The
	// contention arena uses it to give flows heterogeneous RTTs. Held
	// packets wait in the connection's own FIFO (rxHold), which keeps one
	// entry in the event queue however many it holds. Closing the
	// connection does not cancel them: each still comes due, is ignored,
	// and goes back to the pool. Zero (the default) adds no work to the
	// receive path and no state beyond a nil pointer.
	RxDelay time.Duration
}

// Every connection acknowledges every ackEvery-th data packet (TCP's
// default) and the rest within maxAckDelay, and never times out sooner
// than minRTO, loose enough that trace latency spikes do not fire
// spurious timeouts. Packets carry up to packet.MaxPayload bytes.
const (
	ackEvery    = 2
	maxAckDelay = 25 * time.Millisecond
	minRTO      = 400 * time.Millisecond
)

func (cfg *Config) fillDefaults() {
	if cfg.Steer == nil && !cfg.Multipath {
		panic("transport: Config.Steer is required")
	}
	if cfg.CC == nil && !cfg.Unreliable && !cfg.Multipath {
		panic("transport: Config.CC is required for reliable connections")
	}
	if cfg.Multipath && cfg.NewCC == nil {
		panic("transport: Config.NewCC is required for multipath connections")
	}
	if cfg.Multipath && cfg.Unreliable {
		panic("transport: Multipath is a reliable-transport mode")
	}
	if cfg.MsgTimeout == 0 {
		cfg.MsgTimeout = 2 * time.Second
	}
}

// A Message is one application message delivered by a connection.
type Message struct {
	ID       uint64
	Stream   uint32
	Priority packet.Priority
	Size     int
	// Data is the opaque value the sender attached.
	Data any
	// SentAt is when the sender queued the message; DeliveredAt when
	// the final byte arrived. Their difference is the message latency
	// the experiments report.
	SentAt      time.Duration
	DeliveredAt time.Duration
}

// Latency is the message's queue-to-complete-delivery time.
func (m Message) Latency() time.Duration { return m.DeliveredAt - m.SentAt }

// Stats counts a connection's activity.
type Stats struct {
	BytesSent     int64 // payload bytes given to the network (incl. retransmits)
	BytesAcked    int64
	BytesReceived int64 // payload bytes received (excl. duplicates)
	Retransmits   int
	RTOs          int
	MsgsSent      int
	MsgsDelivered int
	MsgsExpired   int // unreliable messages that timed out incomplete
}

// A Conn is one flow between the two endpoints.
type Conn struct {
	ep     *Endpoint
	loop   *sim.Loop
	rec    *arena // the endpoint's record free lists
	flow   packet.FlowID
	cfg    Config
	client bool

	established bool
	closed      bool
	synTries    int
	synTimer    sim.Timer

	// Send state. sentOrder is the in-flight set itself: tracking
	// records in send order (strictly ascending seq), pruned as packets
	// are acked or declared lost. Acks arrive as ascending ranges, so
	// each range is resolved against it by binary search (resolveAcked)
	// with no lookup structure. sentBase is the start of sentOrder's
	// backing array, kept so that appendSent can reuse the slots acks
	// vacate at the front; the array is the arena's, lent while anything
	// is in flight. bytesInFlight is the connection's total; each
	// record's bytes also count against the subflow that sent it.
	sched         scheduler
	nextSeq       uint64
	nextMsgID     uint64
	nextStream    uint32
	sentOrder     []*chunk
	sentBase      []*chunk
	bytesInFlight int
	// Channel names are interned to dense integer IDs so the
	// per-channel send/acked counters are slice indexes, not map keys.
	// The three tables start on the inline arrays below, so one or two
	// channels need no array of their own; a third spills through append.
	chanNames     []string
	sentIndex     []int64 // per-channel send counter, indexed by channel ID
	ackedIndex    []int64 // per-channel highest acked counter
	chanNamesInl  [2]string
	sentIndexInl  [2]int64
	ackedIndexInl [2]int64
	pacingTimer   sim.Timer
	pacingAt      time.Duration // when pacingTimer fires
	retryTimer    sim.Timer
	rtoTimer      sim.Timer
	srtt, rttvar  time.Duration
	rtoBackoff    int
	delivered     int64
	deliveredTime time.Duration
	largestAcked  uint64

	// The subflow set (see multipath.go): sub0 alone for a single-path
	// connection, one per group channel for a multipath one.
	subs []subflow
	sub0 [1]subflow

	// Receive state. doneMsgs records completed (delivered or expired)
	// message IDs: retransmissions carry fresh sequence numbers, so
	// after a long outage a second complete copy of a message can
	// arrive and would otherwise reassemble and deliver again. Message
	// IDs are allocated sequentially, so the set stays a handful of
	// ranges.
	rcvRanges  rangeSet
	doneMsgs   rangeSet
	ackPending int
	ackTimer   sim.Timer
	rcvMsgs    map[uint64]*rcvMsg
	rx         *rxHold // packets held for cfg.RxDelay; nil until the first

	// Pre-bound timer callbacks: evaluating a method value allocates a
	// closure, so each recurring callback is materialized exactly once.
	trySendFn func()
	sendAckFn func()
	onRTOFn   func()
	sendSYNFn func()

	// wakePending dedups the group wake-on-up registration a total
	// blackout parks this connection on (see backoffSend); wakeFn is
	// its pre-bound callback.
	wakePending bool
	wakeFn      func()

	acked []*chunk // acked-this-event scratch, freed in bulk

	onMessage   func(*Conn, Message)
	onRTTSample func(now, rtt time.Duration, ch string)

	tracer *telemetry.Tracer
	stats  Stats
}

func newConn(e *Endpoint, flow packet.FlowID, cfg Config, client bool) *Conn {
	cfg.fillDefaults()
	c := &Conn{
		ep:        e,
		loop:      e.loop,
		rec:       &e.rec,
		flow:      flow,
		cfg:       cfg,
		client:    client,
		sched:     scheduler{rec: &e.rec, flow: flow},
		rcvMsgs:   make(map[uint64]*rcvMsg),
		nextMsgID: 1,
		tracer:    e.tracer,
	}
	c.chanNames, c.sentIndex, c.ackedIndex = c.chanNamesInl[:0], c.sentIndexInl[:0], c.ackedIndexInl[:0]
	c.trySendFn = c.trySend
	c.sendAckFn = c.sendAck
	c.onRTOFn = c.onRTO
	c.sendSYNFn = c.sendSYN
	c.wakeFn = func() {
		c.wakePending = false
		c.trySend()
	}
	c.initSubflows()
	return c
}

// chanID interns a channel name, growing the per-channel counter
// slices alongside the name table. Channel groups hold a handful of
// channels, so the IDs stay dense and small, and a scan of the table
// is cheaper than hashing the name: a channel stamps one string, so a
// match is mostly a pointer compare.
func (c *Conn) chanID(name string) int {
	for id, n := range c.chanNames {
		if n == name {
			return id
		}
	}
	c.chanNames = append(c.chanNames, name)
	c.sentIndex = append(c.sentIndex, 0)
	c.ackedIndex = append(c.ackedIndex, 0)
	return len(c.chanNames) - 1
}

// Flow returns the connection's flow ID.
func (c *Conn) Flow() packet.FlowID { return c.flow }

// Established reports whether the connection may transfer data.
func (c *Conn) Established() bool { return c.established }

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() Stats { return c.stats }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// OnMessage installs the complete-message callback. Messages arriving
// before a callback is installed are dropped, so install it inside the
// listener's accept function.
func (c *Conn) OnMessage(fn func(*Conn, Message)) { c.onMessage = fn }

// OnRTTSample installs an observer of every RTT sample the connection
// takes, tagged with the channel the sampled data traveled on; Fig. 1b
// is produced from this hook.
func (c *Conn) OnRTTSample(fn func(now, rtt time.Duration, ch string)) { c.onRTTSample = fn }

// NewStream allocates a stream ID for subsequent messages. Stream IDs
// are advisory labels: each message is delivered independently,
// ordered only by its own completeness (HTTP/2-style framing without
// head-of-line coupling between streams).
func (c *Conn) NewStream() uint32 {
	c.nextStream++
	return c.nextStream
}

// SendMessage queues a message of size bytes with the given priority
// on the stream and returns its message ID. data travels opaquely and
// is handed to the receiver's OnMessage callback on completion.
func (c *Conn) SendMessage(stream uint32, prio packet.Priority, size int, data any) uint64 {
	if c.closed {
		panic("transport: SendMessage on closed connection")
	}
	if size <= 0 {
		panic(fmt.Sprintf("transport: message size %d must be positive", size))
	}
	id := c.nextMsgID
	c.nextMsgID++
	m := c.rec.newMsg(c.flow)
	m.id, m.stream, m.prio, m.size, m.data, m.sentAt = id, stream, prio, size, data, c.loop.Now()
	c.stats.MsgsSent++
	c.sched.push(m)
	c.trySend()
	return id
}

// Close tears the connection down: every timer stops, per-message
// expiry timers included; queued, in-flight and half-reassembled data
// is discarded, its records returned to the arena; the endpoint forgets
// the flow. Nothing runs or counts afterwards. Close is idempotent.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.synTimer.Stop()
	c.pacingTimer.Stop()
	c.retryTimer.Stop()
	c.rtoTimer.Stop()
	c.ackTimer.Stop()
	for id, rm := range c.rcvMsgs {
		rm.expiry.Stop()
		c.rec.freeRcvMsg(c.flow, rm)
		delete(c.rcvMsgs, id)
	}
	for _, ch := range c.sentOrder {
		c.rec.freeChunk(c.flow, ch)
	}
	clear(c.sentOrder)
	c.releaseWindow()
	c.sched.discard()
	c.ep.forget(c.flow)
	// Only a Close from inside the ack handler (OnRTTSample) gets here.
	if invariant.Enabled() && len(c.acked) > 0 {
		invariant.Failf("transport", "record-owner", "flow %d closed holding %d acked records", c.flow, len(c.acked))
	}
}

// handshake ---------------------------------------------------------

// ctrlPayload rides Control packets for connection management.
type ctrlPayload struct {
	syn    bool
	synack bool
}

func (c *Conn) sendSYN() {
	if c.closed || c.established {
		return
	}
	c.synTries++
	if c.synTries > 6 {
		c.Close()
		return
	}
	p := c.newPacket(packet.Control, packet.HeaderBytes)
	p.Payload = c.ep.ctrlBox(p, ctrlPayload{syn: true})
	c.transmitCtrl(p)
	c.synTimer = c.loop.After(time.Duration(c.synTries)*time.Second, c.sendSYNFn)
}

func (c *Conn) handleCtrl(pl *ctrlPayload) {
	switch {
	case pl.syn:
		// Duplicate SYN for an existing conn: re-answer.
		p := c.newPacket(packet.Control, packet.HeaderBytes)
		p.Payload = c.ep.ctrlBox(p, ctrlPayload{synack: true})
		c.transmitCtrl(p)
	case pl.synack:
		if !c.established {
			c.established = true
			c.synTimer.Stop()
			c.trySend()
		}
	}
}

// handlePacket dispatches one arriving packet.
func (c *Conn) handlePacket(p *packet.Packet) {
	if c.closed {
		return
	}
	switch pl := p.Payload.(type) {
	case *ctrlPayload:
		c.handleCtrl(pl)
	case *fragment:
		c.handleData(p, pl)
	case *ackPayload:
		c.handleAck(p, pl)
	default:
		panic(fmt.Sprintf("transport: flow %d: unknown payload %T", c.flow, p.Payload))
	}
}

// transmitCtrl sends a control or acknowledgment packet on the first
// subflow: through the steering policy for a single-path connection,
// on the first channel for a multipath one (MPTCP's initial subflow
// plays the same role).
func (c *Conn) transmitCtrl(p *packet.Packet) {
	c.ep.carried = c.transmit(&c.subs[0], p, c.ep.carried[:0])
}

// flowLabel renders a flow ID as a metric label value.
func flowLabel(f packet.FlowID) string { return strconv.FormatUint(uint64(f), 10) }

// traceCC records a subflow's congestion controller's post-event
// state: a cwnd trace event (and pacing, for paced algorithms) tagged
// with the algorithm name and the subflow's channel, plus the cc_*
// gauges.
func (c *Conn) traceCC(sf *subflow) {
	// traceCC runs after every congestion-controller event, so it is the
	// one place the cwnd/inflight invariants cover every algorithm on
	// every subflow.
	if invariant.Enabled() {
		c.checkCC(sf.alg)
	}
	if c.tracer == nil {
		return
	}
	alg := sf.alg
	// One gauge series per controller: pinned subflows add their channel
	// to the flow's labels.
	labels := []string{"flow", flowLabel(c.flow), "alg", alg.Name()}
	if sf.ch != nil {
		labels = append(labels, "channel", sf.name)
	}
	cwnd := float64(alg.CWND())
	c.tracer.Emit(telemetry.Event{
		Layer: telemetry.LayerCC, Name: telemetry.EvCwnd, Channel: sf.name,
		Flow: uint32(c.flow), Value: cwnd, Detail: alg.Name(),
	})
	c.tracer.SetGauge("cc_cwnd_bytes", cwnd, labels...)
	if rate := alg.PacingRate(); rate > 0 {
		c.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerCC, Name: telemetry.EvPacing, Channel: sf.name,
			Flow: uint32(c.flow), Value: rate, Detail: alg.Name(),
		})
		c.tracer.SetGauge("cc_pacing_bps", rate, labels...)
	}
}

// maxSaneCwnd bounds any congestion window the simulator can
// legitimately reach: 1 GiB is orders of magnitude above every
// channel's bandwidth-delay product, so crossing it means runaway
// window arithmetic, not congestion control.
const maxSaneCwnd = 1 << 30

// checkCC asserts the congestion-control accounting invariants after a
// controller event: the window stays positive and sane, in-flight
// bytes never go negative on the connection or any subflow, the
// subflows' shares add up to the connection's total, and an empty
// in-flight table accounts for exactly zero bytes (the cheap
// cross-check that catches double-subtracts and leaks in the in-flight
// record lifecycle).
func (c *Conn) checkCC(alg cc.Algorithm) {
	if cwnd := alg.CWND(); cwnd <= 0 || cwnd > maxSaneCwnd {
		invariant.Failf("transport", "cwnd-bounds",
			"flow %d: %s cwnd %d outside (0, %d]", c.flow, alg.Name(), cwnd, maxSaneCwnd)
	}
	if rate := alg.PacingRate(); rate < 0 {
		invariant.Failf("transport", "cwnd-bounds",
			"flow %d: %s negative pacing rate %v", c.flow, alg.Name(), rate)
	}
	sum := 0
	for i := range c.subs {
		sf := &c.subs[i]
		if sf.inflight < 0 {
			invariant.Failf("transport", "inflight-bytes",
				"flow %d: subflow %q: negative bytes in flight %d", c.flow, sf.name, sf.inflight)
		}
		sum += sf.inflight
	}
	if sum != c.bytesInFlight {
		invariant.Failf("transport", "inflight-bytes",
			"flow %d: subflows account for %d bytes in flight, the connection for %d", c.flow, sum, c.bytesInFlight)
	}
	if len(c.sentOrder) == 0 && c.bytesInFlight != 0 {
		invariant.Failf("transport", "inflight-bytes",
			"flow %d: empty in-flight set accounts for %d bytes", c.flow, c.bytesInFlight)
	}
}

// newPacket builds a packet stamped with the connection's identity.
// Packets come from the group's pool; the previous use's payload box is
// left attached so the caller can recycle it when the type matches.
func (c *Conn) newPacket(kind packet.Kind, size int) *packet.Packet {
	p := c.ep.pool.Get()
	box := p.Payload
	*p = packet.Packet{
		ID:           c.ep.ids.Next(),
		Flow:         c.flow,
		Kind:         kind,
		Size:         size,
		FlowPriority: c.cfg.FlowPriority,
		SentAt:       c.loop.Now(),
	}
	p.Payload = box
	return p
}
