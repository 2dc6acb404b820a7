// Package fleet is the fleet-scale simulation harness: it runs N
// independent deterministic UE sessions — each with its own event
// loop, channel trace realization, app workload, and steering policy,
// all derived by pure hashing from (fleet seed, UE index) — and
// aggregates them exclusively through mergeable sketches, so memory
// stays flat no matter how many sessions stream through. This is the
// population view the paper's operator argument needs: not what one
// UE gains from heterogeneous virtual channels, but how the gain
// distributes over ten thousand heterogeneous sessions.
//
// The determinism contract is the package's spine, stated as tests:
// the aggregate report is byte-identical for any worker count, any
// shard size, with and without live progress emission, and across
// invariant_off build variants — because every per-UE input is a pure
// function of (fleet seed, UE index) and every aggregate is an exact
// associative+commutative merge (see internal/sketch).
//
// A fleet spec is a space-separated key=value list in the sweep-spec
// idiom:
//
//	ues=10000 seed=1 mix=bulk:2,web:1 cc=bbr policy=dchannel,embb-only trace=lowband-driving dur=2s stagger=10s
//
// Keys: ues (fleet size), seed (fleet seed), mix (weighted app mix
// app:weight, apps bulk|video|web|arena — arena UEs each run a small
// two-flow in-session contention arena), cc (bulk/arena CCA), policy
// and trace (libraries; each UE draws one by hash), dur (bulk/video
// session length), pages/loads (web corpus), stagger (UE start times
// spread uniformly over [0, stagger)), fault (a shared fleet-absolute
// internal/fault scenario; each session sees it shifted by its own
// start offset).
package fleet

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"hvc/internal/core"
	"hvc/internal/spec"
)

// The app workloads a mix can weight.
const (
	AppBulk  = "bulk"  // core.RunBulk: one long transfer
	AppVideo = "video" // core.RunVideo: real-time SVC stream
	AppWeb   = "web"   // core.RunWeb: sequential page loads
	AppArena = "arena" // arena.Run: two flows contending in-session
)

// maxUEs bounds a fleet so a typo cannot expand into an unbounded run.
const maxUEs = 1_000_000

// A Spec describes one fleet. The zero value is invalid; build specs
// with ParseSpec or populate fields and call Validate.
type Spec struct {
	// UEs is the fleet size.
	UEs int
	// Seed is the fleet seed every per-UE derivation hashes from.
	Seed int64
	// Mix weights the app workloads (Name is one of the App constants);
	// each UE draws one by hash.
	Mix []spec.Weighted
	// CC names the congestion control bulk and arena sessions run (web
	// fixes CUBIC per the paper; video is unreliable and uses none).
	CC string
	// Policies and Traces are the libraries each UE draws its steering
	// policy and eMBB trace realization from, by hash.
	Policies []string
	Traces   []string
	// Dur is the bulk/video session length.
	Dur time.Duration
	// Pages and Loads size web sessions' corpora.
	Pages, Loads int
	// Stagger spreads UE session start times uniformly over
	// [0, Stagger). Faults are fleet-absolute, so a staggered UE meets
	// a shared outage mid-session.
	Stagger time.Duration
	// Fault is a shared fault scenario on the fleet's absolute
	// timeline (internal/fault grammar; "none" or empty disables).
	// Each session receives the schedule shifted by its start offset.
	Fault string
}

// ParseSpec parses the fleet-spec syntax described in the package
// comment: a field table over internal/spec, in canonical key order.
// Unknown keys, duplicate keys, duplicate list values, and names the
// core package does not accept are errors; omitted keys default (see
// Validate), and an explicit zero dur or stagger is rejected
// rather than defaulted. The result is validated and canonical: parsing
// the String of a parsed spec yields the same spec.
func ParseSpec(s string) (Spec, error) {
	sp := Spec{Seed: 1}
	if _, err := spec.Parse("fleet", strings.Fields(s), []spec.Field{
		spec.Int("ues", &sp.UEs),
		spec.Int64("seed", &sp.Seed),
		spec.Weights("mix", "app", &sp.Mix),
		spec.String("cc", &sp.CC),
		spec.List("policy", &sp.Policies),
		spec.List("trace", &sp.Traces),
		spec.PosDur("dur", &sp.Dur),
		spec.Int("pages", &sp.Pages),
		spec.Int("loads", &sp.Loads),
		spec.PosDur("stagger", &sp.Stagger),
		spec.String("fault", &sp.Fault),
	}); err != nil {
		return Spec{}, err
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Validate fills defaults for zero fields (ParseSpec and hand-built
// specs alike), checks every axis value against the core package's
// accepted names, and canonicalizes the fault scenario. The defaults
// favor throughput on small machines: BBR bulk flows and short
// sessions, so a 10k-UE fleet finishes in minutes.
func (s *Spec) Validate() error {
	s.UEs = cmp.Or(s.UEs, 1000)
	if s.UEs < 1 || s.UEs > maxUEs {
		return fmt.Errorf("fleet: ues %d out of [1,%d]", s.UEs, maxUEs)
	}
	if s.Mix == nil {
		s.Mix = []spec.Weighted{{Name: AppBulk, Weight: 1}, {Name: AppVideo, Weight: 1}, {Name: AppWeb, Weight: 1}}
	}
	s.CC = cmp.Or(s.CC, "bbr")
	if s.Policies == nil {
		s.Policies = []string{core.PolicyDChannel}
	}
	if s.Traces == nil {
		s.Traces = []string{"lowband-driving"}
	}
	s.Dur = cmp.Or(s.Dur, 2*time.Second)
	if s.Dur < 100*time.Millisecond {
		return fmt.Errorf("fleet: dur %v below 100ms", s.Dur)
	}
	s.Pages, s.Loads = cmp.Or(s.Pages, 1), cmp.Or(s.Loads, 1)
	s.Stagger = cmp.Or(s.Stagger, 5*time.Second)

	hasApp := map[string]bool{}
	for _, e := range s.Mix {
		switch e.Name {
		case AppBulk, AppVideo, AppWeb, AppArena:
		default:
			return fmt.Errorf("fleet: unknown app %q in mix (bulk, video, web, arena)", e.Name)
		}
		hasApp[e.Name] = true
	}
	if hasApp[AppArena] && s.Dur < 500*time.Millisecond {
		return fmt.Errorf("fleet: arena sessions need dur >= 500ms, got %v", s.Dur)
	}
	if err := core.CheckNames([]string{s.CC}, s.Policies, s.Traces); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if i := slices.IndexFunc(s.Policies, core.WebRejects); hasApp[AppWeb] && i >= 0 {
		return fmt.Errorf("fleet: web sessions do not support policy %q; drop web from the mix or the policy from the library", s.Policies[i])
	}

	// Canonicalize the shared scenario and pin it to the two channels
	// every session has.
	fs, err := core.CellularFault(s.Fault)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	s.Fault = fs.String()
	return nil
}

// String renders the spec canonically: every key, fixed order.
// ParseSpec(s.String()) reproduces s.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ues=%d seed=%d mix=%s", s.UEs, s.Seed, spec.WeightedString(s.Mix))
	fmt.Fprintf(&b, " cc=%s policy=%s trace=%s", s.CC, strings.Join(s.Policies, ","), strings.Join(s.Traces, ","))
	fmt.Fprintf(&b, " dur=%s pages=%d loads=%d stagger=%s fault=%s",
		s.Dur, s.Pages, s.Loads, s.Stagger, s.Fault)
	return b.String()
}

// AppCounts reports how many UEs draw each app, computed from the
// derivation hashes alone — no sessions run. Keys appear for every
// mixed app, sorted by the returned slice's order.
func (s Spec) AppCounts() map[string]int {
	counts := make(map[string]int, len(s.Mix))
	for _, e := range s.Mix {
		counts[e.Name] = 0
	}
	for ue := 0; ue < s.UEs; ue++ {
		counts[s.appFor(ue)]++
	}
	return counts
}

// apps lists the mixed app names sorted, for deterministic rendering.
func (s Spec) apps() []string {
	out := make([]string, len(s.Mix))
	for i, e := range s.Mix {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}
