// Package sweep is the parallel experiment-grid engine: it expands a
// grid spec (experiment × congestion control × steering policy ×
// trace × seed range) into independent simulation jobs, fans them
// across a worker pool, and aggregates per-cell statistics in a
// deterministic order — the output is bit-identical for any worker
// count. A content-addressed disk cache (see cache.go) makes repeated
// sweeps incremental: iterating on one policy re-runs only its column.
//
// This is the machinery evaluation toolkits in the space (ZEUS,
// CoCo-Beholder) build around a testbed; here the "testbed" is the
// repo's deterministic simulator, which is what makes byte-identical
// parallel aggregation possible at all.
package sweep

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"hvc/internal/arena"
	"hvc/internal/core"
	"hvc/internal/spec"
)

// Experiment kinds a Spec can sweep. Each maps to one internal/core
// runner and a fixed, ordered set of per-job metrics (see job.go).
const (
	ExpBulk   = "bulk"   // core.RunBulk: Fig. 1 bulk flow
	ExpVideo  = "video"  // core.RunVideo: Fig. 2 real-time SVC video
	ExpWeb    = "web"    // core.RunWeb: Table 1 page loads
	ExpABR    = "abr"    // core.RunABR: adaptive streaming ablation
	ExpOutage = "outage" // core.RunOutage: frames through fault scenarios
	ExpArena  = "arena"  // arena.Run: multi-flow contention and fairness
)

// maxSeeds bounds a spec's seed range so a typo cannot expand into an
// unbounded job list.
const maxSeeds = 1_000_000

// A Spec describes one experiment grid. The zero value is invalid;
// build specs with ParseSpec, or populate the applicable fields and let
// Run validate them and fill defaults for the zero ones.
type Spec struct {
	// Exp is the experiment kind: bulk, video, web, abr, outage or
	// arena.
	Exp string
	// CCs lists congestion-control algorithms (bulk only; the other
	// workloads fix CUBIC, as the paper does).
	CCs []string
	// Policies lists steering policies (see core.NewPolicy).
	Policies []string
	// Traces lists eMBB traces (see core.TraceNames).
	Traces []string
	// SeedFirst..SeedFirst+SeedCount-1 are the seeds each cell runs.
	SeedFirst int64
	SeedCount int
	// Dur is the run duration (bulk, video, outage, arena) or media
	// length (abr); unused for web.
	Dur time.Duration
	// Pages and Loads size the web corpus; unused otherwise.
	Pages, Loads int
	// Fault is the fault scenario (internal/fault grammar, outage
	// only). Empty defaults to the standard two-blackout schedule
	// scaled to Dur; stored canonically.
	Fault string
	// Flows, Mix, Join, and RTTSpread shape the arena contention run
	// (arena only): competitor count, weighted CCA mix, join stagger, and
	// RTT heterogeneity. The cc axis does not apply to arena — the mix is
	// its CCA knob.
	Flows           int
	Mix             []spec.Weighted
	Join, RTTSpread time.Duration
}

// ParseSpec parses the grid-spec syntax: space-separated key=value
// fields, list values comma-separated, for example
//
//	exp=bulk cc=cubic,bbr policy=dchannel,embb-only seeds=1..5 dur=15s
//
// Keys (a field table over internal/spec, in canonical order): exp
// (bulk|video|web|abr|outage|arena), cc, policy, trace, seeds (N or
// A..B inclusive), dur (positive Go duration), pages, loads, fault (an
// internal/fault scenario, outage only), flows, mix, join, rttspread
// (arena contention knobs, arena only). Unknown keys, duplicate keys,
// duplicate list values, a key that does not apply to the experiment
// (whatever its value), and names the core package does not accept are
// errors. Omitted axes default per experiment (see defaultAndValidate).
// The result is validated and canonical: parsing the String of a
// parsed spec yields the same spec.
func ParseSpec(s string) (Spec, error) { return parseSpec(s, false) }

// ParseQuickSpec parses s like ParseSpec, shrunk for smoke testing
// before any default is filled in: a web grid loads 2 pages once, any
// other run lasts at most 5 s. What follows dur sees the shrunk one:
// the default outage schedule scales to it, and arena joins that do not
// fit it are a parse error. An explicit fault scenario is kept as
// written.
func ParseQuickSpec(s string) (Spec, error) { return parseSpec(s, true) }

func parseSpec(s string, quick bool) (Spec, error) {
	sp := Spec{SeedFirst: 1, SeedCount: 1}
	present, err := spec.Parse("sweep", strings.Fields(s), []spec.Field{
		spec.String("exp", &sp.Exp),
		spec.List("cc", &sp.CCs),
		spec.List("policy", &sp.Policies),
		spec.List("trace", &sp.Traces),
		spec.Func("seeds", func(val string) (err error) {
			sp.SeedFirst, sp.SeedCount, err = parseSeeds(val)
			return err
		}),
		spec.PosDur("dur", &sp.Dur),
		spec.Int("pages", &sp.Pages),
		spec.Int("loads", &sp.Loads),
		spec.String("fault", &sp.Fault),
		spec.Int("flows", &sp.Flows),
		spec.Weights("mix", "CCA", &sp.Mix),
		spec.Dur("join", &sp.Join),
		spec.Dur("rttspread", &sp.RTTSpread),
	})
	if err != nil {
		return Spec{}, err
	}
	if quick {
		if sp.Exp == ExpWeb {
			sp.Pages, sp.Loads = 2, 1
		} else {
			sp.Dur = min(cmp.Or(sp.Dur, expDefaults[sp.Exp].dur), 5*time.Second)
		}
	}
	if err := sp.defaultAndValidate(present); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

func parseSeeds(val string) (first int64, count int, err error) {
	lo, hi, ranged := strings.Cut(val, "..")
	a, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("seeds %q: bad start", val)
	}
	if !ranged {
		return a, 1, nil
	}
	b, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("seeds %q: bad end", val)
	}
	if b < a {
		return 0, 0, fmt.Errorf("seeds %q: end below start", val)
	}
	// b-a can wrap for extreme ranges (a very negative, b very
	// positive); a negative difference is exactly that overflow.
	if d := b - a; d < 0 || d > maxSeeds-1 {
		return 0, 0, fmt.Errorf("seeds %q spans more than %d seeds", val, maxSeeds)
	}
	return a, int(b - a + 1), nil
}

// expDefaults holds each experiment's values for omitted axes (dur is
// unused for web, which sizes itself by pages/loads).
var expDefaults = map[string]struct {
	policies []string
	trace    string
	dur      time.Duration
}{
	ExpBulk:   {[]string{core.PolicyDChannel}, "fixed", 15 * time.Second},
	ExpVideo:  {[]string{core.PolicyDChannel}, "lowband-driving", 20 * time.Second},
	ExpWeb:    {[]string{core.PolicyDChannel}, "lowband-stationary", 0},
	ExpABR:    {[]string{core.PolicyDChannel}, "mmwave-driving", 60 * time.Second},
	ExpOutage: {[]string{core.PolicyEMBBOnly, core.PolicyDChannel, core.PolicyRedundant}, "fixed", 8 * time.Second},
	ExpArena:  {[]string{core.PolicyDChannel}, "fixed", 15 * time.Second},
}

// setKeys reports the experiment-specific keys a hand-built spec sets.
// A struct has no "present but zero", so non-zero is what set means
// here; ParseSpec passes the parser's own present set instead.
func (s Spec) setKeys() map[string]bool {
	return map[string]bool{
		"cc": s.CCs != nil, "dur": s.Dur != 0, "pages": s.Pages != 0, "loads": s.Loads != 0,
		"fault": s.Fault != "", "flows": s.Flows != 0, "mix": s.Mix != nil,
		"join": s.Join != 0, "rttspread": s.RTTSpread != 0,
	}
}

// defaultAndValidate rejects keys in present that do not apply to the
// experiment, fills per-experiment defaults, then checks every axis
// value against the core package's accepted names.
func (s *Spec) defaultAndValidate(present map[string]bool) error {
	def, ok := expDefaults[s.Exp]
	if s.Exp == "" {
		return fmt.Errorf("sweep: spec needs exp=bulk|video|web|abr|outage|arena")
	} else if !ok {
		return fmt.Errorf("sweep: unknown experiment %q (bulk, video, web, abr, outage, arena)", s.Exp)
	}
	// A key applies to an experiment exactly when the canonical form
	// prints it (values are space-free), so render alone decides.
	canonical := " " + s.String()
	for _, key := range []string{"cc", "dur", "pages", "loads", "fault", "flows", "mix", "join", "rttspread"} {
		if present[key] && !strings.Contains(canonical, " "+key+"=") {
			return fmt.Errorf("sweep: %s does not apply to exp=%s", key, s.Exp)
		}
	}
	if s.Policies == nil {
		s.Policies = slices.Clone(def.policies)
	}
	if s.Traces == nil {
		s.Traces = []string{def.trace}
	}
	s.Dur = cmp.Or(s.Dur, def.dur)
	if s.Dur < 0 {
		return fmt.Errorf("sweep: negative dur")
	}
	if s.SeedCount < 1 || s.SeedCount > maxSeeds {
		return fmt.Errorf("sweep: seed count %d out of range", s.SeedCount)
	}
	switch s.Exp {
	case ExpBulk:
		if s.CCs == nil {
			s.CCs = []string{"cubic"}
		}
	case ExpWeb:
		s.Pages, s.Loads = cmp.Or(s.Pages, 6), cmp.Or(s.Loads, 2)
	case ExpArena:
		// The arena's own validator owns the contention rules (flow
		// bounds, mix names, last join fits in dur) and the flows/mix
		// defaults; String and the cache key then name what it filled.
		as := arena.Spec{Flows: s.Flows, Mix: s.Mix, Join: s.Join, RTTSpread: s.RTTSpread, Dur: s.Dur}
		if err := as.Validate(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		s.Flows, s.Mix = as.Flows, as.Mix
	case ExpOutage:
		// Canonicalize the scenario (or materialize the default blackout
		// schedule) so String and the cache key name the exact faults the
		// jobs will run.
		fs, err := core.OutageFault(s.Fault, s.Dur)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		s.Fault = fs.String()
	}

	if err := core.CheckNames(s.CCs, s.Policies, s.Traces); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if s.Exp == ExpWeb && slices.Contains(s.Policies, core.PolicyPriority) {
		return fmt.Errorf("sweep: exp=web does not support policy %q", core.PolicyPriority)
	}
	if s.Exp == ExpOutage && slices.ContainsFunc(s.Traces, func(tr string) bool { return tr != "fixed" }) {
		return fmt.Errorf("sweep: exp=outage only supports trace=fixed")
	}
	return nil
}

// String renders the spec canonically: every applicable key, fixed
// order, seeds always as A..B. ParseSpec(s.String()) reproduces s.
func (s Spec) String() string {
	return s.render(strings.Join(s.CCs, ","), strings.Join(s.Policies, ","), strings.Join(s.Traces, ","),
		fmt.Sprintf("seeds=%d..%d", s.SeedFirst, s.SeedFirst+int64(s.SeedCount)-1))
}

// render is the one canonical key order, shared by String (the axes as
// lists) and job.key (one cell at one seed).
func (s Spec) render(cc, policy, trace, seeds string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exp=%s", s.Exp)
	if s.Exp == ExpBulk {
		fmt.Fprintf(&b, " cc=%s", cc)
	}
	fmt.Fprintf(&b, " policy=%s trace=%s %s", policy, trace, seeds)
	if s.Exp == ExpWeb {
		fmt.Fprintf(&b, " pages=%d loads=%d", s.Pages, s.Loads)
	} else {
		fmt.Fprintf(&b, " dur=%s", s.Dur)
	}
	if s.Exp == ExpOutage {
		fmt.Fprintf(&b, " fault=%s", s.Fault)
	}
	if s.Exp == ExpArena {
		fmt.Fprintf(&b, " flows=%d mix=%s join=%s rttspread=%s",
			s.Flows, spec.WeightedString(s.Mix), s.Join, s.RTTSpread)
	}
	return b.String()
}

// cells enumerates the grid's cells in deterministic order: cc
// outermost, then policy, then trace, each in spec order. Non-bulk
// experiments have a single empty cc value.
func (s Spec) cells() []cellKey {
	ccs := s.CCs
	if len(ccs) == 0 {
		ccs = []string{""}
	}
	var out []cellKey
	for _, cc := range ccs {
		for _, p := range s.Policies {
			for _, tr := range s.Traces {
				out = append(out, cellKey{CC: cc, Policy: p, Trace: tr})
			}
		}
	}
	return out
}

// A cellKey identifies one cell of the grid (every axis except seed).
type cellKey struct {
	CC, Policy, Trace string
}
