// Package netem emulates network links in virtual time, reproducing
// the fluid model behind Linux netem / Mahimahi that the paper's
// testbed used: each unidirectional Link imposes serialization delay
// (packet size over the link rate), propagation delay, drop-tail
// queueing with a byte cap, and optional random loss. Conditions may
// vary over time when driven by a trace, including full outages
// (rate 0), which is how the 5G driving traces back up queues.
package netem

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"hvc/internal/invariant"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/telemetry"
	"hvc/internal/trace"
)

// A Sink receives packets that survive a link's queue, loss, and delay.
type Sink func(*packet.Packet)

// DefaultQueueBytes is the drop-tail capacity used when Config leaves
// QueueBytes zero. It is sized like a typical cellular RLC buffer —
// deep enough that trace outages cause seconds of delay rather than
// immediate loss, which is the behaviour the paper's latency tails
// come from.
const DefaultQueueBytes = 2 << 20

// Config describes one unidirectional link.
type Config struct {
	// Name labels the link in stats and errors.
	Name string
	// Trace supplies the (possibly time-varying) rate and RTT; the
	// one-way propagation delay is RTT/2. Required.
	Trace *trace.Trace
	// QueueBytes caps the drop-tail queue; 0 means DefaultQueueBytes.
	QueueBytes int
	// LossProb drops each packet independently with this probability,
	// in [0,1], modeling non-congestive wireless loss. 1 is a legal
	// blackhole: the link spends air time on every packet and delivers
	// none.
	LossProb float64
	// Salt disambiguates the link's private loss RNG stream when two
	// links share a name (the two directions of a duplex channel).
	Salt string
}

// Stats counts a link's activity since creation.
type Stats struct {
	Sent           int // packets offered to the link
	Delivered      int
	DroppedQueue   int // drop-tail losses
	DroppedRandom  int // LossProb losses
	BytesDelivered int64
}

// arrival is one serialized packet in propagation and the instant it
// reaches the far end.
type arrival struct {
	p  *packet.Packet
	at time.Duration
}

// A Link is one unidirectional emulated link. Create links with New;
// the zero value is not usable.
//
// The per-packet state machine allocates only to grow: the send queue
// and the in-flight delivery queue are wrapping rings that double when
// a packet arrives to find every slot occupied and otherwise reuse
// their slots, so a link's memory is bounded by twice its peak backlog
// — saturated or not, however many packets pass through — and a
// backlog that has stopped growing allocates nothing. The three
// callbacks the link schedules (transmission done, outage over, packet
// arrival) are built once at construction rather than closed over each
// packet. Arrivals are FIFO — the lastArrival clamp makes arrival times
// nondecreasing — so they are scheduled on a sim.Lane: however many
// packets are propagating, the loop's queue holds the next arrival
// only, and each arrival delivers the head of the in-flight ring.
//
// A packet Send accepts is the link's from then on: it reaches the sink,
// or — lost in flight — goes back to the packet pool SetPool named, once
// the drop is counted and traced (with no pool, to the collector).
type Link struct {
	loop *sim.Loop
	cfg  Config
	sink Sink

	queue       ring[*packet.Packet] // awaiting transmission, head in serialization
	queuedBytes int
	busy        bool
	lastArrival time.Duration // FIFO clamp for delay decreases

	inflight ring[arrival] // serialized, awaiting arrival
	// arrivals holds one occurrence of deliver per distinct arrival
	// timestamp in the in-flight ring.
	arrivals sim.Lane

	onTxDone    func()
	onOutageEnd func()

	// seg is the trace sample in force and segUntil the instant it stops
	// holding (trace.Segment): a trace's conditions change every 100 ms
	// or never, a link asks for them several times per packet. The cursor
	// is the link's own — the trace is shared and immutable — and cond
	// is its one reader.
	seg      trace.Sample
	segUntil time.Duration

	// rng is the link's private loss stream, seeded from the loop seed
	// and the link's name+salt: drawing from it never perturbs any
	// other link's deliveries, so adding a link (or a fault process)
	// leaves unrelated links' traces unchanged. It is seeded on the first
	// draw (lossRand), so a link without random loss never builds it.
	rng *rand.Rand

	// Fault-injection overrides (see internal/fault). All are inert in
	// their zero state except rateScale, which New initializes to 1.
	down       bool          // full outage: no new transmissions start
	rateScale  float64       // multiplies the trace rate; 1 = nominal
	extraDelay time.Duration // added one-way propagation delay
	lossFn     func() bool   // extra per-packet drop process (bursts)

	// pool takes back the packets lost in flight; nil outside a group.
	pool *packet.Pool

	stats  Stats
	tracer *telemetry.Tracer
}

// New returns a Link delivering packets to sink. It panics if cfg.Trace
// or sink is nil: a link without conditions or a destination is a
// construction bug, not a runtime condition.
func New(loop *sim.Loop, cfg Config, sink Sink) *Link {
	if cfg.Trace == nil {
		panic(fmt.Sprintf("netem: link %q has no trace", cfg.Name))
	}
	if sink == nil {
		panic(fmt.Sprintf("netem: link %q has no sink", cfg.Name))
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	if cfg.LossProb < 0 || cfg.LossProb > 1 {
		panic(fmt.Sprintf("netem: link %q loss probability %v out of [0,1]", cfg.Name, cfg.LossProb))
	}
	l := &Link{loop: loop, cfg: cfg, sink: sink, rateScale: 1}
	l.onTxDone = l.finishTx
	l.onOutageEnd = func() {
		l.busy = false
		l.kick()
	}
	l.arrivals = sim.NewLane(loop, l.deliver)
	return l
}

// lossRand returns the link's private loss stream.
func (l *Link) lossRand() *rand.Rand {
	if l.rng == nil {
		h := fnv.New64a()
		h.Write([]byte(l.cfg.Name))
		h.Write([]byte{0})
		h.Write([]byte(l.cfg.Salt))
		l.rng = rand.New(rand.NewSource(l.loop.Seed() ^ int64(h.Sum64())))
	}
	return l.rng
}

// cond returns the trace conditions in force at now, the loop's clock:
// the cached sample until the clock reaches the segment's end, then the
// next one. Look-ups at other instants (the outage scans) go to the
// trace directly and leave the cache alone. The slow path is one call
// so that the per-packet path inlines.
func (l *Link) cond(now time.Duration) trace.Sample {
	if now >= l.segUntil || invariant.Enabled() {
		l.advanceSegment(now)
	}
	return l.seg
}

// advanceSegment moves the cache to the segment holding now if it has
// ended, and, when checking is on, holds the cache to the trace.
func (l *Link) advanceSegment(now time.Duration) {
	if now >= l.segUntil {
		l.seg, l.segUntil = l.cfg.Trace.Segment(now)
	}
	if invariant.Enabled() {
		if want := l.cfg.Trace.At(now); l.seg != want {
			invariant.Failf("netem", "trace-segment",
				"link %q: cached sample %+v (until %v) at %v, the trace says %+v",
				l.cfg.Name, l.seg, l.segUntil, now, want)
		}
	}
}

// Name reports the link's configured name.
func (l *Link) Name() string { return l.cfg.Name }

// SetTracer installs the telemetry hook; nil disables tracing. The
// link emits enqueue, drop, and deliver events and maintains the
// netem_* counters, all labeled with the link's name.
func (l *Link) SetTracer(t *telemetry.Tracer) { l.tracer = t }

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() Stats { return l.stats }

// QueuedBytes reports the bytes currently waiting in the sender-side
// queue, including the packet being serialized. Steering policies use
// this as their channel-occupancy signal.
func (l *Link) QueuedBytes() int { return l.queuedBytes }

// queued reports the number of packets awaiting transmission.
func (l *Link) queued() int { return l.queue.len() }

// QueueDelay estimates how long a newly arriving byte would wait before
// starting transmission, given current conditions. During an outage it
// reports the time to drain the queue at the trace's next nonzero rate
// observed going forward, bounded by one trace repetition.
func (l *Link) QueueDelay() time.Duration {
	if l.down {
		// Fault outage: the link cannot say when it will recover, so it
		// reports itself as maximally unattractive (the same sentinel
		// steering uses for a zero-capacity channel).
		return time.Hour
	}
	now := l.loop.Now()
	rate := l.cond(now).Rate * l.rateScale
	if rate > 0 {
		return time.Duration(float64(l.queuedBytes) * 8 / rate * float64(time.Second))
	}
	// Outage: find the next instant with capacity.
	limit := now + l.cfg.Trace.Duration()
	for t := l.cfg.Trace.NextChange(now); t < limit; t = l.cfg.Trace.NextChange(t) {
		if r := l.cfg.Trace.At(t).Rate * l.rateScale; r > 0 {
			return t - now + time.Duration(float64(l.queuedBytes)*8/r*float64(time.Second))
		}
	}
	return limit - now
}

// SetDown toggles a fault-injection outage: while down, queued packets
// wait (drop-tail still applies at entry) and no new transmission
// starts; packets already serialized still arrive, like frames already
// on the air when a radio link blacks out. Clearing the outage resumes
// transmission immediately.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if !down {
		l.kick()
	}
}

// Down reports whether a fault-injection outage is active. Steering
// policies use this as the liveness signal for failover; the
// trace-driven rate (which the host could not observe directly) is
// deliberately not consulted.
func (l *Link) Down() bool { return l.down }

// SetRateScale multiplies the trace rate by f (a fault-injection rate
// slump); 1 restores nominal conditions. It panics when f <= 0: a
// total outage is SetDown's job, which knows how to wake up.
func (l *Link) SetRateScale(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("netem: link %q rate scale %v must be positive (use SetDown for outages)", l.cfg.Name, f))
	}
	l.rateScale = f
}

// SetExtraDelay adds d to the one-way propagation delay of packets
// finishing serialization from now on (a fault-injection delay spike);
// 0 restores nominal conditions.
func (l *Link) SetExtraDelay(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("netem: link %q negative extra delay %v", l.cfg.Name, d))
	}
	l.extraDelay = d
}

// SetLossFn installs an extra per-packet drop process consulted after
// serialization, before the link's own LossProb draw (which is skipped
// for packets fn already dropped). Fault injection uses it for
// Gilbert–Elliott loss bursts; nil removes it. fn must be
// deterministic given the link's packet sequence — draw any randomness
// from a private seeded source, never from the loop's shared Rand.
func (l *Link) SetLossFn(fn func() bool) { l.lossFn = fn }

// RateScale reports the active fault-injection rate multiplier
// (1 = nominal). The fault layer checks it to verify a slump window
// restored the link.
func (l *Link) RateScale() float64 { return l.rateScale }

// ExtraDelay reports the active fault-injection delay addition
// (0 = nominal).
func (l *Link) ExtraDelay() time.Duration { return l.extraDelay }

// LossFnInstalled reports whether a fault-injection drop process is
// installed.
func (l *Link) LossFnInstalled() bool { return l.lossFn != nil }

// SetPool makes the link hand every packet it loses in flight — to
// LossProb or to an installed loss process — back to pl. channel.NewGroup
// wires each link of a group to the group's packet pool.
func (l *Link) SetPool(pl *packet.Pool) { l.pool = pl }

// Packets reports how many packets the link holds: queued (the one in
// serialization included) or propagating.
func (l *Link) Packets() int { return l.queue.len() + l.inflight.len() }

// Send offers a packet to the link. It reports false when the packet
// was dropped at entry (queue overflow — a congestion signal), and the
// packet stays the caller's; true when it was accepted, and the packet
// is the link's (see Link). Random wireless loss happens in flight,
// after serialization, so an accepted packet may still never arrive.
func (l *Link) Send(p *packet.Packet) bool {
	l.stats.Sent++
	if l.queuedBytes+p.Size > l.cfg.QueueBytes {
		l.stats.DroppedQueue++
		if l.tracer.Enabled() {
			l.tracer.Emit(telemetry.Event{
				Layer: telemetry.LayerChannel, Name: telemetry.EvDrop,
				Channel: l.cfg.Name, Flow: uint32(p.Flow), Seq: p.Seq,
				Bytes: p.Size, Detail: "queue",
			})
			l.tracer.Count("netem_dropped_total", 1, "channel", l.cfg.Name, "reason", "queue")
		}
		return false
	}
	p.Channel = l.cfg.Name
	l.queue.push(p)
	l.queuedBytes += p.Size
	if l.tracer.Enabled() {
		l.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerChannel, Name: telemetry.EvEnqueue,
			Channel: l.cfg.Name, Flow: uint32(p.Flow), Seq: p.Seq,
			Bytes: p.Size, Value: float64(l.queuedBytes),
		})
		l.tracer.Count("netem_sent_total", 1, "channel", l.cfg.Name)
	}
	l.kick()
	return true
}

// kick starts serializing the head-of-line packet if the transmitter is
// idle. During an outage it re-arms itself at the next trace boundary.
func (l *Link) kick() {
	if l.busy {
		return
	}
	if l.queue.len() == 0 {
		// Drained. An empty queue must account for exactly zero bytes —
		// any drift in the byte counter (a size mutated while queued, a
		// double subtract) surfaces here, at the first quiet moment.
		if invariant.Enabled() && l.queuedBytes != 0 {
			invariant.Failf("netem", "queue-bytes",
				"link %q drained its queue with %d bytes still accounted", l.cfg.Name, l.queuedBytes)
		}
		return
	}
	if l.down {
		// Fault outage: stay idle; SetDown(false) re-kicks. Unlike a
		// trace outage there is no known end time to sleep until.
		return
	}
	now := l.loop.Now()
	rate := l.cond(now).Rate * l.rateScale
	if rate <= 0 {
		// Trace outage: sleep straight to the first boundary that
		// restores capacity instead of waking at every intermediate
		// zero-rate segment, bounded by one trace repetition (an
		// all-zero trace still wakes once per cycle to re-scan).
		wake := l.cfg.Trace.NextChange(now)
		limit := now + l.cfg.Trace.Duration()
		for wake < limit && l.cfg.Trace.At(wake).Rate <= 0 {
			wake = l.cfg.Trace.NextChange(wake)
		}
		l.busy = true
		l.loop.At(wake, l.onOutageEnd)
		return
	}
	p := l.queue.front()
	txTime := time.Duration(float64(p.Size) * 8 / rate * float64(time.Second))
	l.busy = true
	l.loop.After(txTime, l.onTxDone)
}

// finishTx completes serialization of the head-of-line packet,
// schedules its arrival after the propagation delay, and starts the
// next packet.
func (l *Link) finishTx() {
	p := l.queue.pop()
	l.queuedBytes -= p.Size
	l.busy = false

	// Non-congestive wireless loss strikes in flight: the transmitter
	// spent the air time but the packet never arrives. The installed
	// fault process (loss bursts) is consulted first; an independent
	// draw from the link's private stream covers the configured i.i.d.
	// loss. LossProb == 1 always drops — Float64 is in [0,1).
	drop, reason := false, "loss"
	if l.lossFn != nil && l.lossFn() {
		drop, reason = true, "burst"
	}
	if !drop && l.cfg.LossProb > 0 && l.lossRand().Float64() < l.cfg.LossProb {
		drop = true
	}
	if drop {
		l.stats.DroppedRandom++
		if l.tracer.Enabled() {
			l.tracer.Emit(telemetry.Event{
				Layer: telemetry.LayerChannel, Name: telemetry.EvDrop,
				Channel: l.cfg.Name, Flow: uint32(p.Flow), Seq: p.Seq,
				Bytes: p.Size, Detail: reason,
			})
			l.tracer.Count("netem_dropped_total", 1, "channel", l.cfg.Name, "reason", reason)
		}
		if l.pool != nil {
			l.pool.Put(p)
		}
		l.kick()
		return
	}

	now := l.loop.Now()
	at := now + l.cond(now).RTT/2 + l.extraDelay
	// Preserve FIFO delivery when the trace's delay drops between
	// consecutive packets, as a real single path would.
	if at < l.lastArrival {
		at = l.lastArrival
	}
	l.stats.Delivered++
	l.stats.BytesDelivered += int64(p.Size)
	// One arrival event per distinct timestamp: a packet whose clamped
	// arrival equals the ring tail's rides the occurrence already pushed
	// for that instant, and deliver drains the whole burst in one
	// callback. Arrivals are nondecreasing, so "equals the tail" is
	// exactly "not later than every pending packet".
	if l.inflight.len() == 0 || at > l.lastArrival {
		l.arrivals.Push(at)
	}
	l.lastArrival = at
	l.inflight.push(arrival{p, at})

	l.kick()
}

// checkConservation verifies the link's packet-conservation identity:
// every packet ever offered is, at this instant, exactly one of queued
// (awaiting or in serialization), dropped at entry, dropped in flight,
// or serialized for delivery (stats.Delivered counts these, whether
// still propagating or already handed to the sink). The identity is
// O(1) and is asserted at every delivery, so a leak or double count
// anywhere in the link's state machine fails within one packet.
func (l *Link) checkConservation() {
	accounted := l.queued() + l.stats.DroppedQueue + l.stats.DroppedRandom + l.stats.Delivered
	if l.stats.Sent != accounted {
		invariant.Failf("netem", "conservation",
			"link %q: sent %d != queued %d + dropped(queue %d, random %d) + delivered %d",
			l.cfg.Name, l.stats.Sent, l.queued(), l.stats.DroppedQueue,
			l.stats.DroppedRandom, l.stats.Delivered)
	}
	if l.queuedBytes < 0 {
		invariant.Failf("netem", "queue-bytes", "link %q: negative queued bytes %d", l.cfg.Name, l.queuedBytes)
	}
}

// deliver hands every in-flight packet whose arrival time has come to
// the sink — the whole same-timestamp burst in one callback, rather
// than one loop event per packet.
func (l *Link) deliver() {
	now := l.loop.Now()
	if invariant.Enabled() {
		l.checkConservation()
		if l.inflight.len() == 0 {
			invariant.Failf("netem", "inflight-ring",
				"link %q: arrival event with empty in-flight ring", l.cfg.Name)
		}
		// Arrivals are FIFO by construction (the lastArrival clamp);
		// a delivery past the recorded horizon, or one the ring's head is
		// not due at, means the ring and the arrival lane have come apart.
		if now > l.lastArrival {
			invariant.Failf("netem", "fifo-arrival",
				"link %q: delivery at %v after last scheduled arrival %v", l.cfg.Name, now, l.lastArrival)
		}
		if head := l.inflight.front().at; head != now {
			invariant.Failf("netem", "fifo-arrival",
				"link %q: arrival at %v with the in-flight ring's head due at %v", l.cfg.Name, now, head)
		}
	}
	for l.inflight.len() > 0 && l.inflight.front().at <= now {
		p := l.inflight.pop().p
		if l.tracer.Enabled() {
			l.tracer.Emit(telemetry.Event{
				Layer: telemetry.LayerChannel, Name: telemetry.EvDeliver,
				Channel: l.cfg.Name, Flow: uint32(p.Flow), Seq: p.Seq,
				Bytes: p.Size, Dur: now - p.SentAt,
			})
			l.tracer.Count("netem_delivered_bytes_total", float64(p.Size), "channel", l.cfg.Name)
		}
		l.sink(p)
	}
	// The lane holds an occurrence for each timestamp still in the ring:
	// one runs dry exactly when the other does.
	if invariant.Enabled() && (l.arrivals.Len() == 0) != (l.inflight.len() == 0) {
		invariant.Failf("netem", "inflight-ring",
			"link %q: %d arrival occurrences pending with %d packets in flight",
			l.cfg.Name, l.arrivals.Len(), l.inflight.len())
	}
}
