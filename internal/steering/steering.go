// Package steering implements the packet-steering policies the paper
// compares across layers of the stack (§3):
//
//   - Single: all traffic on one channel (the eMBB-only baseline).
//   - DChannel: the network-layer reward/cost heuristic of Sentosa et
//     al. (NSDI '23), application-agnostic, accelerating control
//     packets and any data whose expected latency gain on the narrow
//     channel exceeds the cost of occupying it.
//   - Priority: the paper's cross-layer policy; it additionally sees
//     message boundaries and priorities through the application-
//     transport interface, forces high-priority messages onto the
//     low-latency channel, and keeps bulk background flows off it.
//   - Redundant: Wi-Fi MLO-style duplication across channels, trading
//     bandwidth for reliability (§2.2, §3.1).
//   - CostAware: a budgeted policy for priced low-latency WAN paths
//     such as cISP (§3.1's latency-vs-cost trade-off).
//
// A policy decides; the caller transmits. Policies observe channel
// queues through the channel package, which is exactly the channel
// information the paper argues should be exposed upward.
package steering

import (
	"fmt"
	"time"

	"hvc/internal/channel"
	"hvc/internal/packet"
)

// A Policy maps each outgoing packet to the channel(s) that should
// carry it. Pick returns at least one channel; more than one means the
// packet is replicated (receivers deduplicate by packet ID).
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Pick chooses the channel(s) for p. Implementations must not
	// retain p. The returned slice is valid only until the next Pick
	// on the same policy: implementations reuse one scratch slice per
	// policy so that steady-state steering does not allocate.
	Pick(p *packet.Packet) []*channel.Channel
}

// A LivenessAware policy declares whether it routes around channels in
// a fault outage. For a policy that reports FailsOver() == true, the
// runtime invariant layer asserts after every Pick that no chosen
// channel is down while a live alternative exists — the steering
// liveness property that turns one channel's blackout into, at worst,
// a detour rather than the connection's. Single reports false: the
// no-failover baseline ships traffic onto dead channels by design.
type LivenessAware interface {
	// FailsOver reports whether the policy avoids channels that are
	// Down when a live alternative exists.
	FailsOver() bool
}

// A Reasoner is a Policy that can explain its most recent Pick: a
// short machine-greppable string ("control:narrow-faster",
// "bulk-flow") recorded by the telemetry layer with each steering
// decision. Every policy in this package implements it.
type Reasoner interface {
	// LastReason describes the most recent Pick. Valid until the next
	// Pick on the same policy.
	LastReason() string
}

// Reason extracts p's last decision reason when p explains itself,
// and falls back to the policy name otherwise.
func Reason(p Policy) string {
	if r, ok := p.(Reasoner); ok {
		if s := r.LastReason(); s != "" {
			return s
		}
	}
	return p.Name()
}

// Counter wraps a Policy and tallies per-channel decisions; the
// experiment harness uses it to report channel shares.
type Counter struct {
	Policy
	counts map[string]int
}

// NewCounter returns a counting wrapper around p.
func NewCounter(p Policy) *Counter {
	return &Counter{Policy: p, counts: make(map[string]int)}
}

// Pick delegates to the wrapped policy and counts its decisions.
func (c *Counter) Pick(p *packet.Packet) []*channel.Channel {
	chs := c.Policy.Pick(p)
	for _, ch := range chs {
		c.counts[ch.Name()]++
	}
	return chs
}

// Counts reports decisions per channel name so far.
func (c *Counter) Counts() map[string]int { return c.counts }

// LastReason implements Reasoner by delegating to the wrapped policy.
func (c *Counter) LastReason() string {
	if r, ok := c.Policy.(Reasoner); ok {
		return r.LastReason()
	}
	return ""
}

// Single sends everything on one channel.
type Single struct {
	ch   *channel.Channel
	pick []*channel.Channel
}

// failover substitutes alt for choice when choice is in a fault-
// injection outage (channel.Down) and alt is not, reporting whether it
// swapped. It is the liveness check every adaptive policy applies
// after its own preference: a dead channel accepts packets into a
// queue that drains nowhere, so keeping traffic on it turns one
// channel's blackout into the connection's. The moment the channel
// recovers, Down flips back and the policy's ordinary rule re-probes
// it — no separate probing machinery needed.
func failover(choice, alt *channel.Channel) (*channel.Channel, bool) {
	if choice.Down() && !alt.Down() {
		return alt, true
	}
	return choice, false
}

// NewSingle returns the single-channel policy (the eMBB-only
// baseline). It panics on a nil channel. Single deliberately does not
// fail over — it is the no-HVC baseline whose stall time under an
// outage the adaptive policies are measured against.
func NewSingle(ch *channel.Channel) *Single {
	if ch == nil {
		panic("steering: NewSingle(nil)")
	}
	return &Single{ch: ch}
}

// Name implements Policy.
func (s *Single) Name() string { return s.ch.Name() + "-only" }

// Pick implements Policy.
func (s *Single) Pick(*packet.Packet) []*channel.Channel {
	s.pick = append(s.pick[:0], s.ch)
	return s.pick
}

// LastReason implements Reasoner.
func (s *Single) LastReason() string { return "single" }

// DChannelConfig parameterizes the DChannel heuristic.
type DChannelConfig struct {
	// Wide and Narrow name the high-bandwidth and low-latency
	// channels; they default to the conventional eMBB/URLLC names.
	Wide, Narrow string
	// Beta scales the cost term: higher values are more conservative
	// about occupying the narrow channel. 0 means the default of 1.
	Beta float64
}

// DChannel implements the network-layer reward/cost packet steering
// heuristic. It is deliberately application-agnostic: every packet is
// treated as if it might complete a message (the paper's explanation
// of why it underperforms priority-aware steering on SVC video).
type DChannel struct {
	side       channel.Side
	wide       *channel.Channel
	narrow     *channel.Channel
	beta       float64
	pick       []*channel.Channel
	lastReason string
}

// NewDChannel builds the heuristic over g as seen from side. It panics
// when the configured channels are missing from the group.
func NewDChannel(g *channel.Group, side channel.Side, cfg DChannelConfig) *DChannel {
	cfg = cfg.withDefaults()
	wide, narrow := g.Get(cfg.Wide), g.Get(cfg.Narrow)
	if wide == nil || narrow == nil {
		panic(fmt.Sprintf("steering: group lacks %q or %q", cfg.Wide, cfg.Narrow))
	}
	return &DChannel{side: side, wide: wide, narrow: narrow, beta: cfg.Beta}
}

// Name implements Policy.
func (d *DChannel) Name() string { return "dchannel" }

// LastReason implements Reasoner.
func (d *DChannel) LastReason() string { return d.lastReason }

// Pick implements Policy.
func (d *DChannel) Pick(p *packet.Packet) []*channel.Channel {
	ch, alt := d.wide, d.narrow
	if d.pickNarrow(p) {
		ch, alt = d.narrow, d.wide
	}
	if sw, swapped := failover(ch, alt); swapped {
		ch = sw
		d.lastReason = "failover:" + ch.Name()
	}
	d.pick = append(d.pick[:0], ch)
	return d.pick
}

// pickNarrow evaluates the reward/cost rule for p.
func (d *DChannel) pickNarrow(p *packet.Packet) bool {
	narrowDelay := d.oneWay(d.narrow) + txTime(p.Size, d.narrow)
	wideDelay := d.oneWay(d.wide) + txTime(p.Size, d.wide)

	if p.Kind != packet.Data {
		// Control traffic (ACKs, probes) is tiny and reliably
		// latency-sensitive; DChannel accelerates it whenever the
		// narrow channel is currently the faster way to deliver it.
		if narrowDelay < wideDelay {
			d.lastReason = "control:narrow-faster"
			return true
		}
		d.lastReason = "control:wide-faster"
		return false
	}
	// Reward: expected one-way latency saved by this packet. Cost:
	// the transmission time it occupies on the narrow channel, which
	// delays everything behind it there.
	reward := wideDelay - narrowDelay
	cost := time.Duration(d.beta * float64(txTime(p.Size, d.narrow)))
	if reward > cost {
		d.lastReason = "reward>cost"
		return true
	}
	d.lastReason = "reward<=cost"
	return false
}

func (d *DChannel) oneWay(ch *channel.Channel) time.Duration {
	return ch.Props().BaseRTT/2 + ch.QueueDelay(d.side)
}

func txTime(size int, ch *channel.Channel) time.Duration {
	bw := ch.Props().Bandwidth
	if bw <= 0 {
		return time.Hour // a channel with no capacity is never attractive
	}
	return time.Duration(float64(size) * 8 / bw * float64(time.Second))
}

// PriorityConfig parameterizes the cross-layer policy.
type PriorityConfig struct {
	// Wide and Narrow as in DChannelConfig.
	Wide, Narrow string
	// AdmitPrio forces messages with Priority ≤ AdmitPrio onto the
	// narrow channel regardless of its queue (the SVC layer-0 rule).
	// A negative value disables forcing.
	AdmitPrio int
	// Heuristic applies the DChannel reward/cost rule to packets not
	// otherwise forced, as "DChannel with priority" does for web
	// traffic. When false such packets use the wide channel.
	Heuristic bool
	// Beta is the heuristic's cost scale, as in DChannelConfig.
	Beta float64
}

// Priority is the paper's application-aware policy: it reads message
// priorities and flow priorities from packet headers (supplied through
// the application-transport interface) and keeps the constrained
// low-latency channel for traffic the application declared important.
type Priority struct {
	cfg        PriorityConfig
	fallback   *DChannel
	narrow     *channel.Channel
	wide       *channel.Channel
	pick       []*channel.Channel
	lastReason string
}

// NewPriority builds the policy over g as seen from side.
func NewPriority(g *channel.Group, side channel.Side, cfg PriorityConfig) *Priority {
	fb := NewDChannel(g, side, cfg.fallback())
	return &Priority{cfg: cfg, fallback: fb, narrow: fb.narrow, wide: fb.wide}
}

// Name implements Policy.
func (pr *Priority) Name() string {
	if pr.cfg.Heuristic {
		return "dchannel+priority"
	}
	return "priority"
}

// LastReason implements Reasoner.
func (pr *Priority) LastReason() string { return pr.lastReason }

// Pick implements Policy.
func (pr *Priority) Pick(p *packet.Packet) []*channel.Channel {
	// Bulk background flows never occupy the narrow channel; this is
	// the flow-priority input that removes Table 1's queue build-up.
	if p.FlowPriority == packet.PriorityBulk {
		pr.lastReason = "bulk-flow"
		return pr.choose(pr.wide, pr.narrow)
	}
	if pr.cfg.AdmitPrio >= 0 && p.Kind == packet.Data && int(p.Priority) <= pr.cfg.AdmitPrio {
		pr.lastReason = "prio-admit"
		return pr.choose(pr.narrow, pr.wide)
	}
	if pr.cfg.Heuristic || p.Kind != packet.Data {
		chs := pr.fallback.Pick(p)
		pr.lastReason = pr.fallback.LastReason()
		return chs
	}
	pr.lastReason = "default-wide"
	return pr.choose(pr.wide, pr.narrow)
}

// choose returns ch, unless it is dead and alt is not — even a forced
// priority rule yields to liveness, since a dead narrow channel serves
// no one's latency.
func (pr *Priority) choose(ch, alt *channel.Channel) []*channel.Channel {
	if sw, swapped := failover(ch, alt); swapped {
		ch = sw
		pr.lastReason = "failover:" + ch.Name()
	}
	pr.pick = append(pr.pick[:0], ch)
	return pr.pick
}

// Redundant replicates every packet across all channels of the group,
// trading aggregate bandwidth for delivery probability (Wi-Fi MLO's
// reliability mode). Receivers deduplicate on packet ID.
type Redundant struct {
	g    *channel.Group
	pick []*channel.Channel
}

// NewRedundant builds the replication policy over g, which must hold
// at least two channels for replication to mean anything.
func NewRedundant(g *channel.Group) *Redundant {
	if g.Len() < 2 {
		panic("steering: Redundant needs at least two channels")
	}
	return &Redundant{g: g}
}

// Name implements Policy.
func (r *Redundant) Name() string { return "redundant" }

// LastReason implements Reasoner.
func (r *Redundant) LastReason() string { return "replicate" }

// Pick implements Policy.
func (r *Redundant) Pick(p *packet.Packet) []*channel.Channel {
	// Replicate across the live channels only: a copy queued on a dead
	// channel cannot arrive during the outage and only resurfaces as a
	// stale duplicate afterwards. When everything is down, replicate
	// everywhere — the copies queue and race out at recovery.
	r.pick = r.pick[:0]
	for _, ch := range r.g.All() {
		if !ch.Down() {
			r.pick = append(r.pick, ch)
		}
	}
	if len(r.pick) == 0 {
		r.pick = append(r.pick, r.g.All()...)
	}
	if len(r.pick) > 1 {
		p.Copy = true // mark so receivers know duplicates may exist
	}
	return r.pick
}

// CostAwareConfig parameterizes budgeted use of a priced channel.
type CostAwareConfig struct {
	// Cheap and Priced name the free and per-byte-priced channels.
	Cheap, Priced string
	// BudgetBytesPerSec refills the spending allowance; the policy
	// never sends more than this long-run average over the priced
	// channel, and saves up at most one second of it. Any estimated
	// one-way saving qualifies a packet for the priced channel.
	BudgetBytesPerSec float64
}

// CostAware spends a byte budget on a priced low-latency channel only
// when doing so buys enough latency, the §3.1 latency-vs-cost policy.
type CostAware struct {
	cfg    CostAwareConfig
	side   channel.Side
	cheap  *channel.Channel
	priced *channel.Channel

	now        func() time.Duration
	tokens     float64
	lastRefill time.Duration
	spentBytes int64
	pick       []*channel.Channel
	lastReason string
}

// NewCostAware builds the policy; now supplies virtual time (the
// simulation clock's Now method).
func NewCostAware(g *channel.Group, side channel.Side, now func() time.Duration, cfg CostAwareConfig) *CostAware {
	cheap, priced := g.Get(cfg.Cheap), g.Get(cfg.Priced)
	if cheap == nil || priced == nil {
		panic(fmt.Sprintf("steering: group lacks %q or %q", cfg.Cheap, cfg.Priced))
	}
	if cfg.BudgetBytesPerSec <= 0 {
		panic("steering: CostAware needs a positive budget")
	}
	return &CostAware{
		cfg: cfg, side: side, cheap: cheap, priced: priced,
		now: now, tokens: cfg.BudgetBytesPerSec,
	}
}

// Name implements Policy.
func (c *CostAware) Name() string { return "costaware" }

// SpentBytes reports the total bytes sent over the priced channel.
func (c *CostAware) SpentBytes() int64 { return c.spentBytes }

// Cost reports the money spent so far, per the priced channel's
// CostPerByte.
func (c *CostAware) Cost() float64 {
	return float64(c.spentBytes) * c.priced.Props().CostPerByte
}

// LastReason implements Reasoner.
func (c *CostAware) LastReason() string { return c.lastReason }

// Pick implements Policy.
func (c *CostAware) Pick(p *packet.Packet) []*channel.Channel {
	c.refill()
	// Liveness overrides the budget: while the cheap channel is blacked
	// out, the priced one is the only way to make progress, so spend on
	// it even past the token floor (the spend is still metered and the
	// refill debt is capped at zero, not carried). The reverse case
	// needs no special path — a dead priced channel's QueueDelay makes
	// its benefit hugely negative and the rule below picks cheap.
	if c.cheap.Down() && !c.priced.Down() {
		c.tokens -= float64(p.Size)
		if c.tokens < 0 {
			c.tokens = 0
		}
		c.spentBytes += int64(p.Size)
		c.lastReason = "failover:" + c.priced.Name()
		c.pick = append(c.pick[:0], c.priced)
		return c.pick
	}
	benefit := c.cheap.Props().BaseRTT/2 + c.cheap.QueueDelay(c.side) -
		(c.priced.Props().BaseRTT/2 + c.priced.QueueDelay(c.side) + txTime(p.Size, c.priced))
	if benefit > 0 && c.tokens >= float64(p.Size) {
		c.tokens -= float64(p.Size)
		c.spentBytes += int64(p.Size)
		c.lastReason = "benefit-in-budget"
		c.pick = append(c.pick[:0], c.priced)
		return c.pick
	}
	if benefit > 0 {
		c.lastReason = "budget-exhausted"
	} else {
		c.lastReason = "no-benefit"
	}
	c.pick = append(c.pick[:0], c.cheap)
	return c.pick
}

func (c *CostAware) refill() {
	now := c.now()
	if now <= c.lastRefill {
		return
	}
	c.tokens += (now - c.lastRefill).Seconds() * c.cfg.BudgetBytesPerSec
	if c.tokens > c.cfg.BudgetBytesPerSec {
		c.tokens = c.cfg.BudgetBytesPerSec
	}
	c.lastRefill = now
}

// TailBoost implements §3.2's observation that, because the transport
// fragments application messages, "segments towards the end of a
// message can be selectively sent over a low latency path" to avoid
// head-of-line blocking on the final bytes: a message is useful only
// when complete, so its tail is the most latency-critical part. The
// policy wraps a base policy and diverts segments within tailBytes of
// their message's end to the URLLC channel whenever that is currently
// the faster way to deliver them.
type TailBoost struct {
	base       Policy
	side       channel.Side
	narrow     *channel.Channel
	pick       []*channel.Channel
	lastReason string
}

// tailBytes is how much of each message's tail qualifies for
// acceleration: a handful of packets.
const tailBytes = 8 << 10

// NewTailBoost wraps base over g as seen from side.
func NewTailBoost(base Policy, g *channel.Group, side channel.Side) *TailBoost {
	if base == nil {
		panic("steering: NewTailBoost(nil base)")
	}
	narrow := g.Get(channel.NameURLLC)
	if narrow == nil {
		panic(fmt.Sprintf("steering: group lacks %q", channel.NameURLLC))
	}
	return &TailBoost{base: base, side: side, narrow: narrow}
}

// Name implements Policy.
func (t *TailBoost) Name() string { return t.base.Name() + "+tail" }

// LastReason implements Reasoner.
func (t *TailBoost) LastReason() string { return t.lastReason }

// Pick implements Policy.
func (t *TailBoost) Pick(p *packet.Packet) []*channel.Channel {
	chosen := t.base.Pick(p)
	t.lastReason = Reason(t.base)
	if p.Kind != packet.Data || p.MsgRemaining >= tailBytes || len(chosen) != 1 ||
		chosen[0] == t.narrow || t.narrow.Down() {
		return chosen
	}
	baseDelay := chosen[0].Props().BaseRTT/2 + chosen[0].QueueDelay(t.side) + txTime(p.Size, chosen[0])
	narrowDelay := t.narrow.Props().BaseRTT/2 + t.narrow.QueueDelay(t.side) + txTime(p.Size, t.narrow)
	if narrowDelay < baseDelay {
		t.lastReason = "tail-boost"
		t.pick = append(t.pick[:0], t.narrow)
		return t.pick
	}
	return chosen
}

// ObjectMapConfig parameterizes the IANS-style policy.
type ObjectMapConfig struct {
	// Wide and Narrow as in DChannelConfig.
	Wide, Narrow string
	// SmallBytes is the size at or below which a whole message is
	// assigned to the narrow channel; 0 means 10 kB (an "interactive
	// object" intent).
	SmallBytes int
}

// ObjectMap implements the Informed Access Network Selection baseline
// (Enghardt et al.; Socket Intents): the application's size/intent
// hint assigns each *object* — a whole message — to exactly one
// channel. The paper's criticism (§1) is the granularity: because an
// object never spans channels, a large object cannot borrow the
// low-latency channel for its tail, and a small object on the narrow
// channel cannot overflow onto the wide one, so ObjectMap
// underperforms per-packet steering while still beating a single
// channel.
type ObjectMap struct {
	side   channel.Side
	wide   *channel.Channel
	narrow *channel.Channel
	small  int
	// assignment is sticky per message, the defining IANS property.
	assignment map[uint64]*channel.Channel
	pick       []*channel.Channel
	lastReason string
}

// NewObjectMap builds the policy over g as seen from side.
func NewObjectMap(g *channel.Group, side channel.Side, cfg ObjectMapConfig) *ObjectMap {
	cfg = cfg.withDefaults()
	wide, narrow := g.Get(cfg.Wide), g.Get(cfg.Narrow)
	if wide == nil || narrow == nil {
		panic(fmt.Sprintf("steering: group lacks %q or %q", cfg.Wide, cfg.Narrow))
	}
	return &ObjectMap{
		side: side, wide: wide, narrow: narrow, small: cfg.SmallBytes,
		assignment: make(map[uint64]*channel.Channel),
	}
}

// Name implements Policy.
func (o *ObjectMap) Name() string { return "objectmap" }

// LastReason implements Reasoner.
func (o *ObjectMap) LastReason() string { return o.lastReason }

// Pick implements Policy.
func (o *ObjectMap) Pick(p *packet.Packet) []*channel.Channel {
	if p.Kind != packet.Data {
		// IANS operates above the transport; its control traffic just
		// follows the default (wide) network — except around an outage,
		// where an ack or handshake stranded on the dead default would
		// stall the whole flow. (Found by the steering liveness
		// invariant under chaos soak.)
		ch := o.wide
		o.lastReason = "control-default"
		if sw, swapped := failover(ch, o.narrow); swapped {
			ch = sw
			o.lastReason = "failover:" + ch.Name()
		}
		o.pick = append(o.pick[:0], ch)
		return o.pick
	}
	ch, ok := o.assignment[p.MsgID]
	if !ok {
		// First packet of the message: its remaining count plus this
		// payload reveals the object size the application declared.
		objectSize := p.MsgRemaining + p.Size - packet.HeaderBytes
		if objectSize <= o.small {
			ch = o.narrow
			o.lastReason = "object-small"
		} else {
			ch = o.wide
			o.lastReason = "object-large"
		}
		o.assignment[p.MsgID] = ch
	} else {
		o.lastReason = "object-sticky"
	}
	// The object-to-channel assignment stays sticky (the defining IANS
	// property), but packets detour around an outage: when the assigned
	// channel is down they ride the other one until it recovers.
	other := o.wide
	if ch == o.wide {
		other = o.narrow
	}
	if sw, swapped := failover(ch, other); swapped {
		ch = sw
		o.lastReason = "failover:" + ch.Name()
	}
	o.pick = append(o.pick[:0], ch)
	return o.pick
}

// Liveness declarations (see LivenessAware). Every adaptive policy in
// this package routes around a Down channel when a live alternative
// exists, so the invariant layer holds it to that; Single is the
// deliberate no-failover baseline.

// FailsOver implements LivenessAware: the baseline does not fail over.
func (s *Single) FailsOver() bool { return false }

// FailsOver implements LivenessAware.
func (d *DChannel) FailsOver() bool { return true }

// FailsOver implements LivenessAware.
func (pr *Priority) FailsOver() bool { return true }

// FailsOver implements LivenessAware.
func (r *Redundant) FailsOver() bool { return true }

// FailsOver implements LivenessAware.
func (c *CostAware) FailsOver() bool { return true }

// FailsOver implements LivenessAware.
func (o *ObjectMap) FailsOver() bool { return true }

// FailsOver implements LivenessAware by delegating to the base policy:
// the tail boost only ever adds the narrow channel when it is up, so
// liveness is the base's property.
func (t *TailBoost) FailsOver() bool {
	if la, ok := t.base.(LivenessAware); ok {
		return la.FailsOver()
	}
	return false
}

// FailsOver implements LivenessAware by delegating to the wrapped
// policy.
func (c *Counter) FailsOver() bool {
	if la, ok := c.Policy.(LivenessAware); ok {
		return la.FailsOver()
	}
	return false
}
