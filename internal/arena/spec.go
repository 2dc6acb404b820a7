// Package arena is the multi-flow contention harness: M independent
// transport connections — same or mixed congestion control, staggered
// joins, heterogeneous RTTs — compete over one shared HVC channel set,
// and the harness reports the fairness metrics the single-flow
// experiments cannot: per-flow throughput shares, the Jain fairness
// index, convergence time after the last join, and throughput/delay
// ellipse points (the CoCo-Beholder presentation), all fed through
// internal/sketch so runs aggregate like every other harness in the
// repo.
//
// An arena spec is a space-separated key=value list in the sweep-spec
// idiom:
//
//	flows=4 mix=cubic:2,copa,bbr join=2s rttspread=40ms seed=1 dur=15s epoch=500ms policy=dchannel trace=fixed
//
// Keys: flows (competitor count), mix (weighted CCA mix cc:weight,
// assigned to flows cyclically), join (stagger between consecutive
// joins, plus a small per-flow seed-derived jitter), rttspread (flow
// i's extra receive delay ramps linearly from 0 to this), seed, dur
// (total run length), epoch (throughput/RTT sampling period), policy
// (steering policy every flow uses), trace (shared eMBB trace).
package arena

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"hvc/internal/core"
	"hvc/internal/spec"
)

// maxFlows bounds an arena so a typo cannot expand into an unbounded
// run: contention semantics, not fleet scale (internal/fleet covers
// that).
const maxFlows = 64

// A MixEntry weights one congestion-control algorithm (Name) in the
// arena's flow mix.
type MixEntry = spec.Weighted

// A Spec describes one arena run. The zero value is invalid; build
// specs with ParseSpec or populate fields and call Validate.
type Spec struct {
	// Flows is the number of competing connections.
	Flows int
	// Seed drives the shared event loop and the per-flow join jitter.
	Seed int64
	// Mix weights the CCAs; flows draw from the weight-expanded list
	// cyclically, so mix=cubic:2,bbr over 4 flows yields
	// cubic,cubic,bbr,cubic.
	Mix []MixEntry
	// Join staggers flow starts: flow i joins at i*Join plus a
	// seed-derived jitter of up to Join/8.
	Join time.Duration
	// RTTSpread gives flows heterogeneous path lengths: flow i's
	// connection delays every received packet by i*RTTSpread/(Flows-1).
	RTTSpread time.Duration
	// Dur is the total run length.
	Dur time.Duration
	// Epoch is the sampling period for per-flow throughput/RTT series.
	Epoch time.Duration
	// Policy is the steering policy every flow uses.
	Policy string
	// Trace names the shared eMBB trace (see core.TraceNames).
	Trace string

	// FlowSeeds optionally overrides each flow's derived seed (join
	// jitter); nil derives them from Seed. Not part of the grammar —
	// the isolation property tests perturb a single flow through it.
	FlowSeeds []int64
}

// ParseSpec parses the arena-spec syntax described in the package
// comment: a field table over internal/spec, in canonical key order.
// Unknown keys, duplicate keys, and names the core package does not
// accept are errors; omitted keys default (see Validate), and
// an explicit zero dur or epoch is rejected rather than defaulted. The
// result is canonical: parsing the String of a parsed spec yields the
// same spec.
func ParseSpec(s string) (Spec, error) {
	sp := Spec{Seed: 1}
	if _, err := spec.Parse("arena", strings.Fields(s), []spec.Field{
		spec.Int("flows", &sp.Flows),
		spec.Weights("mix", "CCA", &sp.Mix),
		spec.Dur("join", &sp.Join),
		spec.Dur("rttspread", &sp.RTTSpread),
		spec.Int64("seed", &sp.Seed),
		spec.PosDur("dur", &sp.Dur),
		spec.PosDur("epoch", &sp.Epoch),
		spec.String("policy", &sp.Policy),
		spec.String("trace", &sp.Trace),
	}); err != nil {
		return Spec{}, err
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Validate fills defaults for zero fields (ParseSpec and hand-built
// specs alike) and checks every name against the core package.
func (s *Spec) Validate() error {
	s.Flows = cmp.Or(s.Flows, 2)
	if s.Flows < 1 || s.Flows > maxFlows {
		return fmt.Errorf("arena: flows %d out of [1,%d]", s.Flows, maxFlows)
	}
	if s.Mix == nil {
		s.Mix = []MixEntry{{Name: "cubic", Weight: 1}}
	}
	s.Dur = cmp.Or(s.Dur, 15*time.Second)
	if s.Dur < 500*time.Millisecond {
		return fmt.Errorf("arena: dur %v below 500ms", s.Dur)
	}
	s.Epoch = cmp.Or(s.Epoch, min(max(s.Dur/30, 100*time.Millisecond), time.Second))
	if s.Epoch < 10*time.Millisecond || s.Epoch >= s.Dur {
		return fmt.Errorf("arena: epoch %v out of [10ms,dur)", s.Epoch)
	}
	s.Policy, s.Trace = cmp.Or(s.Policy, core.PolicyDChannel), cmp.Or(s.Trace, "fixed")

	ccs := make([]string, len(s.Mix))
	for i, e := range s.Mix {
		ccs[i] = e.Name
	}
	if err := core.CheckNames(ccs, []string{s.Policy}, []string{s.Trace}); err != nil {
		return fmt.Errorf("arena: %w", err)
	}
	// Every flow must be joined with room to measure: at least one full
	// epoch after the last join.
	if last := s.joinBase(s.Flows - 1); last+s.Epoch >= s.Dur {
		return fmt.Errorf("arena: last join at %v leaves no full epoch before dur %v", last, s.Dur)
	}
	if len(s.FlowSeeds) != 0 && len(s.FlowSeeds) != s.Flows {
		return fmt.Errorf("arena: FlowSeeds has %d entries for %d flows", len(s.FlowSeeds), s.Flows)
	}
	return nil
}

// String renders the spec canonically: every grammar key, fixed order.
// ParseSpec(s.String()) reproduces s (FlowSeeds, test-only, excluded).
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flows=%d mix=%s join=%s rttspread=%s", s.Flows, spec.WeightedString(s.Mix), s.Join, s.RTTSpread)
	fmt.Fprintf(&b, " seed=%d dur=%s epoch=%s policy=%s trace=%s", s.Seed, s.Dur, s.Epoch, s.Policy, s.Trace)
	return b.String()
}

// CCFor returns flow i's congestion-control name: the weight-expanded
// mix, assigned cyclically.
func (s Spec) CCFor(i int) string { return spec.Pick(s.Mix, uint64(i)) }

// CCs returns every flow's CCA in flow order.
func (s Spec) CCs() []string {
	out := make([]string, s.Flows)
	for i := range out {
		out[i] = s.CCFor(i)
	}
	return out
}

// joinBase is flow i's nominal join time before jitter.
func (s Spec) joinBase(i int) time.Duration {
	return time.Duration(i) * s.Join
}

// JoinAt returns flow i's join time: i*Join plus a seed-derived jitter
// of up to Join/8. The jitter hashes (flow seed, i) so perturbing one
// flow's seed moves only that flow's join — the isolation property the
// arena tests pin.
func (s Spec) JoinAt(i int) time.Duration {
	base := s.joinBase(i)
	if s.Join <= 0 {
		return base
	}
	span := uint64(s.Join / 8)
	if span == 0 {
		return base
	}
	return base + time.Duration(mix64(uint64(s.FlowSeed(i)))%span)
}

// FlowSeed returns flow i's derived seed: FlowSeeds[i] when set,
// otherwise a splitmix64 derivation of (Seed, i).
func (s Spec) FlowSeed(i int) int64 {
	if len(s.FlowSeeds) == s.Flows {
		return s.FlowSeeds[i]
	}
	return int64(mix64(uint64(s.Seed) ^ mix64(uint64(i)+1)))
}

// ExtraDelay returns flow i's receive-side path delay: a linear ramp
// from zero (flow 0) to RTTSpread (the last flow).
func (s Spec) ExtraDelay(i int) time.Duration {
	if s.Flows < 2 || s.RTTSpread <= 0 {
		return 0
	}
	return time.Duration(int64(s.RTTSpread) * int64(i) / int64(s.Flows-1))
}

// mix64 is one whole splitmix64 step: the golden-ratio increment,
// then the finalizer (spec.Mix64) the fleet applies without it.
func mix64(x uint64) uint64 { return spec.Mix64(x + 0x9e3779b97f4a7c15) }
