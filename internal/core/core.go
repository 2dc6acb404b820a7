// Package core is the library's top-level API: it assembles channel
// groups for the paper's scenarios, constructs congestion-control
// algorithms and steering policies by name, and runs one scenario per
// call — a bulk flow, a video session, a set of page loads, one
// ablation point. It holds no grids: which CCAs, traces, policies and
// βs make up each figure and table is written once, in
// internal/experiments, which loops over them (see DESIGN.md §3 for
// the experiment index).
package core

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
)

// Steering policy names accepted by the runners.
const (
	PolicyEMBBOnly         = "embb-only"
	PolicyDChannel         = "dchannel"
	PolicyPriority         = "priority"          // message-priority forcing (video)
	PolicyDChannelPriority = "dchannel+priority" // DChannel + flow-priority hints (web)
	PolicyObjectMap        = "objectmap"         // IANS-style whole-object assignment
	PolicyRedundant        = "redundant"         // replicate across all live channels
)

// An entry names one member of a namespace (congestion controls,
// traces, steering policies). Each namespace is one ordered table that
// its constructor, validator and name list all read, so a name is
// spelled — and a policy's configuration written — once.
type entry[T any] struct {
	name string
	val  T
}

func lookup[T any](table []entry[T], name string) (val T, ok bool) {
	for _, e := range table {
		if e.name == name {
			return e.val, true
		}
	}
	return val, false
}

func names[T any](table []entry[T]) []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// ccTable lists the congestion-control algorithms in the order Fig. 1a
// reports them.
var ccTable = []entry[func() cc.Algorithm]{
	{"cubic", func() cc.Algorithm { return cc.NewCubic() }},
	{"bbr", func() cc.Algorithm { return cc.NewBBR() }},
	{"vegas", func() cc.Algorithm { return cc.NewVegas() }},
	{"vivace", func() cc.Algorithm { return cc.NewVivace() }},
	{"reno", func() cc.Algorithm { return cc.NewReno() }},
	{"copa", func() cc.Algorithm { return cc.NewCopa() }},
}

// CCNames lists the congestion-control algorithms NewCC accepts. Each
// name also has an "hvc-" variant wrapping it in the §3.2 channel-aware
// filter.
func CCNames() []string { return names(ccTable) }

// NewCC builds a congestion-control algorithm by name. An "hvc-"
// prefix wraps the inner algorithm in cc.HVCAware bound to the eMBB
// channel.
func NewCC(name string) (cc.Algorithm, error) {
	if inner, ok := strings.CutPrefix(name, "hvc-"); ok {
		alg, err := NewCC(inner)
		if err != nil {
			return nil, err
		}
		return cc.NewHVCAware(alg, channel.NameEMBB), nil
	}
	build, ok := lookup(ccTable, name)
	if !ok {
		return nil, fmt.Errorf("core: unknown congestion control %q", name)
	}
	return build(), nil
}

// ValidCC reports whether name is an algorithm NewCC accepts,
// including "hvc-"-wrapped variants.
func ValidCC(name string) bool {
	for strings.HasPrefix(name, "hvc-") {
		name = strings.TrimPrefix(name, "hvc-")
	}
	_, ok := lookup(ccTable, name)
	return ok
}

var traceTable = []entry[func(seed int64, dur time.Duration) *trace.Trace]{
	{"lowband-stationary", trace.LowbandStationary},
	{"lowband-walking", trace.LowbandWalking},
	{"lowband-driving", trace.LowbandDriving},
	{"mmwave-driving", trace.MmWaveDriving},
	{"fixed", func(int64, time.Duration) *trace.Trace { return trace.FixedEMBB() }},
}

// TraceNames lists the synthetic 5G trace generators NewTrace accepts.
func TraceNames() []string { return names(traceTable) }

// ValidTrace reports whether name is a trace NewTrace accepts.
func ValidTrace(name string) bool {
	_, ok := lookup(traceTable, name)
	return ok
}

// NewTrace builds a named eMBB trace of the given duration from seed.
func NewTrace(name string, seed int64, dur time.Duration) (*trace.Trace, error) {
	build, ok := lookup(traceTable, name)
	if !ok {
		return nil, fmt.Errorf("core: unknown trace %q", name)
	}
	return build(seed, dur), nil
}

// Cellular assembles the paper's two-channel cellular scenario: a
// trace-driven eMBB channel plus the constant URLLC channel.
func Cellular(loop *sim.Loop, embb *trace.Trace) *channel.Group {
	return channel.NewGroup(channel.EMBB(loop, embb), channel.URLLC(loop))
}

// policyTable holds each steering policy's constructor.
var policyTable = []entry[func(g *channel.Group, side channel.Side) (steering.Policy, error)]{
	{PolicyEMBBOnly, func(g *channel.Group, _ channel.Side) (steering.Policy, error) {
		embb := g.Get(channel.NameEMBB)
		if embb == nil {
			return nil, fmt.Errorf("core: group has no %q channel", channel.NameEMBB)
		}
		return steering.NewSingle(embb), nil
	}},
	{PolicyDChannel, func(g *channel.Group, side channel.Side) (steering.Policy, error) {
		return steering.NewDChannel(g, side, steering.DChannelConfig{}), nil
	}},
	{PolicyPriority, func(g *channel.Group, side channel.Side) (steering.Policy, error) {
		return steering.NewPriority(g, side, steering.PriorityConfig{AdmitPrio: 0}), nil
	}},
	{PolicyDChannelPriority, func(g *channel.Group, side channel.Side) (steering.Policy, error) {
		return steering.NewPriority(g, side, steering.PriorityConfig{AdmitPrio: -1, Heuristic: true}), nil
	}},
	{PolicyObjectMap, func(g *channel.Group, side channel.Side) (steering.Policy, error) {
		return steering.NewObjectMap(g, side, steering.ObjectMapConfig{}), nil
	}},
	{PolicyRedundant, func(g *channel.Group, _ channel.Side) (steering.Policy, error) {
		return steering.NewRedundant(g), nil
	}},
}

// NewPolicy builds a steering policy by name over g as seen from side.
func NewPolicy(name string, g *channel.Group, side channel.Side) (steering.Policy, error) {
	build, ok := lookup(policyTable, name)
	if !ok {
		return nil, fmt.Errorf("core: unknown steering policy %q", name)
	}
	return build(g, side)
}

// ValidPolicy reports whether name is a steering policy NewPolicy
// accepts.
func ValidPolicy(name string) bool {
	_, ok := lookup(policyTable, name)
	return ok
}

// CheckNames reports the first of ccs, policies and traces that NewCC,
// NewPolicy or NewTrace would reject, with the names it would accept.
// The error carries no package prefix: the spec grammars that validate
// their axes through it add their own.
func CheckNames(ccs, policies, traces []string) error {
	return cmp.Or(
		checkNames("congestion control", ccs, ValidCC, CCNames),
		checkNames("steering policy", policies, ValidPolicy, func() []string { return names(policyTable) }),
		checkNames("trace", traces, ValidTrace, TraceNames))
}

func checkNames(what string, list []string, valid func(string) bool, all func() []string) error {
	for _, n := range list {
		if !valid(n) {
			return fmt.Errorf("unknown %s %q (valid: %s)", what, n, strings.Join(all(), ", "))
		}
	}
	return nil
}

// mustPolicy is NewPolicy for validated names inside runners.
func mustPolicy(name string, g *channel.Group, side channel.Side) steering.Policy {
	return must(NewPolicy(name, g, side))
}

// must returns v, panicking on err: runners build policies and worlds
// only from names and configurations they have already validated.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// SortedCounts renders a per-channel count map deterministically, for
// experiment output.
func SortedCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, m[k])
	}
	return s
}

// Summary aggregates one scalar metric across repeated runs. The JSON
// field names are part of the hvc-sweep-report/v1 schema.
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// Median is the midpoint of the observed values (mean of the two
	// middle values for even N).
	Median float64 `json:"median"`
	// CI95 is the half-width of the 95% confidence interval of the
	// mean under a Student t distribution: Mean ± CI95 brackets the
	// true mean at 95% confidence, assuming roughly normal run-to-run
	// variation. Zero when N < 2.
	CI95 float64 `json:"ci95"`
}

// tTable95 holds two-sided 95% Student t critical values for 1..30
// degrees of freedom; larger samples use the normal 1.96.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCritical95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	return 1.960
}

// Summarize aggregates vals into a Summary. It does not mutate vals.
// An empty slice yields the zero Summary.
func Summarize(vals []float64) Summary {
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: vals[0], Max: vals[0]}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(n)
	var ss float64
	for _, v := range vals {
		d := v - s.Mean
		ss += d * d
	}
	if n > 1 {
		s.Std = math.Sqrt(ss / float64(n-1))
		s.CI95 = tCritical95(n-1) * s.Std / math.Sqrt(float64(n))
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}
