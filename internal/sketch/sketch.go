// Package sketch provides deterministic, mergeable streaming summaries
// of scalar measurement streams: a log-scale bucketed histogram with a
// bounded relative quantile error plus exact streaming count, sum, min,
// and max. It is the aggregation substrate for fleet-scale runs, where
// buffering every per-UE sample (as metrics.Distribution does) would
// grow memory linearly with the fleet: a Sketch holds a fixed few
// kilobytes no matter how many observations stream through it.
//
// Determinism and mergeability are the design constraints:
//
//   - Observe is allocation-free: the bucket array is sized once at
//     construction and an observation is a handful of float ops plus
//     one counter increment (a budget test pins 0 allocs/op).
//   - All histogram state — bucket counts, the low-bucket count, the
//     observation count — is integral, and min/max are exact extrema.
//     The running sum is a fixed-point superaccumulator (sum.go) that
//     adds float64 observations as exact integers, so even the sum is
//     order-independent. Merge is therefore exactly associative and
//     commutative on the complete state: any grouping of the same
//     observations into shards — any worker count, any shard size —
//     yields byte-identical merged state. (Aggregators like
//     internal/pool and internal/sweep still fold shards in job-index
//     order for worker-count independence of *reported tables*; the
//     sketch no longer depends on it.)
//   - Quantile answers within relative error Alpha of the sample at
//     the queried rank, for samples inside the trackable range
//     [MinTrackable, MaxTrackable]. Samples at or below MinTrackable
//     (zeros and negatives included) collapse into a dedicated low
//     bucket whose quantile estimate is the exact minimum; samples
//     above MaxTrackable clamp into the top bucket and their estimate
//     clamps to the exact maximum. Simulator metrics (millisecond
//     latencies, Mbps rates, event counts) sit comfortably inside the
//     range.
//
// The scheme is the classic log-bucketed quantile sketch (DDSketch,
// HDR histogram): bucket i covers [γ^i, γ^(i+1)) with γ = (1+α)/(1-α),
// and the per-bucket estimate 2γ^(i+1)/(γ+1) is at most a factor
// (γ-1)/(γ+1) = α from any value in the bucket.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

const (
	// DefaultAlpha is the default relative quantile accuracy: estimates
	// are within 1% of the true sample value.
	DefaultAlpha = 0.01
	// MinTrackable and MaxTrackable bound the value range resolved by
	// the log buckets. 1e-9 .. 1e12 spans sub-nanosecond durations to
	// terabit rates, 21 decades, which costs ~2.4k buckets at the
	// default accuracy.
	MinTrackable = 1e-9
	MaxTrackable = 1e12
)

// A Sketch is one streaming summary. Construct with New or NewDefault;
// the zero Sketch is not usable (the bucket array must be sized from
// alpha).
type Sketch struct {
	alpha       float64
	gamma       float64
	invLogGamma float64
	base        int // bucket 0 covers [γ^base, γ^(base+1))

	counts []uint64
	low    uint64 // observations ≤ MinTrackable: zeros, negatives, underflow
	count  uint64
	sum    exactSum
	min    float64
	max    float64
}

// New returns an empty sketch with relative accuracy alpha
// (0 < alpha < 1). Two sketches merge only if they share an alpha.
func New(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("sketch: accuracy %v outside (0, 1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	logGamma := math.Log(gamma)
	base := int(math.Floor(math.Log(MinTrackable) / logGamma))
	top := int(math.Floor(math.Log(MaxTrackable) / logGamma))
	return &Sketch{
		alpha:       alpha,
		gamma:       gamma,
		invLogGamma: 1 / logGamma,
		base:        base,
		counts:      make([]uint64, top-base+1),
	}
}

// NewDefault returns an empty sketch at DefaultAlpha accuracy.
func NewDefault() *Sketch { return New(DefaultAlpha) }

// Observe records one observation. It never allocates: the hot path is
// a log, a floor, and a counter increment. NaN must not be observed.
func (s *Sketch) Observe(v float64) {
	if s.count == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.count++
	s.sum.add(v)
	if !(v > MinTrackable) {
		s.low++
		return
	}
	idx := int(math.Floor(math.Log(v)*s.invLogGamma)) - s.base
	if idx < 0 {
		idx = 0
	} else if idx >= len(s.counts) {
		idx = len(s.counts) - 1
	}
	s.counts[idx]++
}

// ObserveDuration records a duration in milliseconds, the unit the
// paper reports latencies in (matching metrics.Distribution).
func (s *Sketch) ObserveDuration(d time.Duration) {
	s.Observe(float64(d) / float64(time.Millisecond))
}

// N reports the number of observations.
func (s *Sketch) N() uint64 { return s.count }

// Sum reports the sum of all observations: the exact accumulated value
// rounded once to float64, independent of observation order or of how
// the stream was sharded and merged.
func (s *Sketch) Sum() float64 { return s.sum.value() }

// Mean reports the arithmetic mean, or 0 for an empty sketch.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.Sum() / float64(s.count)
}

// Min reports the exact smallest observation, or 0 for an empty sketch.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max reports the exact largest observation, or 0 for an empty sketch.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1): a value within
// relative error Alpha of the sample of rank ⌈q·N⌉ (1-indexed, the
// nearest-rank definition). It returns 0 for an empty sketch and
// panics on an out-of-range q. Estimates clamp into [Min, Max], so
// Quantile(0) and Quantile(1) are exact.
func (s *Sketch) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("sketch: quantile %v out of range [0,1]", q))
	}
	if s.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.count)))
	if target <= 1 {
		return s.min // rank 1 is the smallest sample: exact
	}
	if target >= s.count {
		return s.max // the largest sample: exact
	}
	cum := s.low
	if cum >= target {
		// The rank falls among the below-range observations; the exact
		// minimum is the best (and a conservative) answer.
		return s.min
	}
	for i, n := range s.counts {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= target {
			v := s.bucketValue(i)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max // unreachable: counts account for every in-range observation
}

// bucketValue is the minimax estimate for bucket i, which covers
// [γ^(base+i), γ^(base+i+1)): 2Aγ/(γ+1) with A the bucket's lower
// edge, at most a factor α from either edge.
func (s *Sketch) bucketValue(i int) float64 {
	a := math.Pow(s.gamma, float64(s.base+i))
	return 2 * a * s.gamma / (s.gamma + 1)
}

// Merge folds o into s. Every piece of state — bucket counts, the
// observation count, the extrema, and the exact sum — merges
// associatively and commutatively, so any grouping of the same shards
// produces byte-identical merged state. s.Merge(s) is well-defined and
// doubles the sketch. Sketches of different accuracy do not merge:
// that is a call-site bug and panics.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if o.alpha != s.alpha || len(o.counts) != len(s.counts) || o.base != s.base {
		panic(fmt.Sprintf("sketch: merging incompatible layouts (alpha %v vs %v)", s.alpha, o.alpha))
	}
	if s.count == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.count += o.count
	s.low += o.low
	s.sum.merge(&o.sum)
	for i, n := range o.counts {
		if n != 0 {
			s.counts[i] += n
		}
	}
}

// Marshal renders the complete sketch state as deterministic bytes:
// count, low, sum, min, max (IEEE bits), then every nonempty bucket as
// an (index, count) pair in index order. Two sketches with identical
// state marshal to identical bytes — the worker-count-invariance tests
// compare these.
func (s *Sketch) Marshal() []byte {
	b := make([]byte, 0, 48+16*8) // header + a few buckets before growth
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u64(math.Float64bits(s.alpha))
	u64(s.count)
	u64(s.low)
	u64(math.Float64bits(s.Sum()))
	u64(math.Float64bits(s.min))
	u64(math.Float64bits(s.max))
	for i, n := range s.counts {
		if n != 0 {
			u64(uint64(i))
			u64(n)
		}
	}
	return b
}

// A Summary is one named sketch's headline numbers, the shape progress
// lines, run reports and fleet reports embed: exact count, mean and
// extrema plus quantiles within the sketch's relative accuracy.
type Summary struct {
	Name string  `json:"name"`
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// Summarize renders the sketch's headline numbers under a name.
func (s *Sketch) Summarize(name string) Summary {
	return Summary{
		Name: name, N: s.count,
		Mean: s.Mean(), Min: s.Min(), Max: s.Max(),
		P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99),
	}
}

// A Group tracks one sketch per metric name behind a mutex — the live
// aggregation point worker pools feed and progress emitters sample
// concurrently. A nil *Group is the disabled group: Observe is a no-op
// and Snapshot returns nil, so call sites need no enabled-checks.
type Group struct {
	mu     sync.Mutex
	byName map[string]*Sketch
}

// NewGroup returns an empty group at DefaultAlpha accuracy.
func NewGroup() *Group { return &Group{byName: make(map[string]*Sketch)} }

// Observe records v into the named sketch, creating it on first use.
// Safe for concurrent use.
func (g *Group) Observe(name string, v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	s, ok := g.byName[name]
	if !ok {
		s = NewDefault()
		g.byName[name] = s
	}
	s.Observe(v)
	g.mu.Unlock()
}

// Snapshot summarizes every sketch, sorted by name. Safe for
// concurrent use with Observe; the summaries are a consistent
// point-in-time copy per sketch.
func (g *Group) Snapshot() []Summary {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.byName))
	for name := range g.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Summary, 0, len(names))
	for _, name := range names {
		out = append(out, g.byName[name].Summarize(name))
	}
	return out
}

// Merge folds every sketch of o into g, creating named sketches in g
// on first sight. It is the group-level shard fold for fleet
// aggregation: like Sketch.Merge it is associative and commutative, so
// any grouping of the same per-shard groups merges to byte-identical
// state. A nil receiver or a nil/empty o is a no-op; g.Merge(g) is
// well-defined and doubles every sketch. Not safe for concurrent use
// with writers to o.
func (g *Group) Merge(o *Group) {
	if g == nil || o == nil {
		return
	}
	if g == o {
		// Self-merge: double each sketch without taking the one lock
		// twice.
		g.mu.Lock()
		for _, s := range g.byName {
			s.Merge(s)
		}
		g.mu.Unlock()
		return
	}
	g.mu.Lock()
	for name, src := range o.byName {
		dst, ok := g.byName[name]
		if !ok {
			dst = New(src.alpha)
			g.byName[name] = dst
		}
		dst.Merge(src)
	}
	g.mu.Unlock()
}

// Do calls fn for every sketch in name order. The sketches are the
// group's own (not copies); the group lock is held for the duration,
// so fn must not call back into g.
func (g *Group) Do(fn func(name string, s *Sketch)) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.byName))
	for name := range g.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn(name, g.byName[name])
	}
}
