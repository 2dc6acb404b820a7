// Package metrics collects and summarizes measurements produced by
// simulation runs: empirical distributions (means, percentiles, CDFs)
// and time series (per-bucket aggregation), which are the two shapes of
// data the paper's figures and tables report.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// A Distribution accumulates scalar observations and answers order
// statistics over them. The zero value is an empty distribution ready
// for use.
type Distribution struct {
	values []float64
	sorted bool
	sum    float64
	min    float64
	max    float64
}

// Add records one observation. Min and Max are maintained as running
// extrema, and a run of nondecreasing observations keeps the values
// sorted, so monotone series answer order statistics without ever
// paying for a sort.
func (d *Distribution) Add(v float64) {
	if len(d.values) == 0 {
		d.min, d.max = v, v
		d.sorted = true
	} else {
		if v < d.min {
			d.min = v
		}
		if v >= d.max {
			d.max = v // appending at or above the maximum preserves order
		} else {
			d.sorted = false
		}
	}
	if n := len(d.values); n == cap(d.values) && n >= doubleFrom {
		d.Grow(n)
	}
	d.values = append(d.values, v)
	d.sum += v
}

// doubleFrom is the length from which Add doubles a full container
// itself. Below it append already doubles, so small containers (fleet
// keeps many) grow exactly as append grows them. From it on append
// grows by about 1.25×, which allocates about 5N elements for N kept;
// doubling allocates at most twice the final capacity.
const doubleFrom = 256

// Grow ensures capacity for at least n more observations without
// reallocating. Add grows a full distribution by its own length.
func (d *Distribution) Grow(n int) {
	if n <= 0 || cap(d.values)-len(d.values) >= n {
		return
	}
	grown := make([]float64, len(d.values), len(d.values)+n)
	copy(grown, d.values)
	d.values = grown
}

// AddDuration records a duration observation in milliseconds, the unit
// the paper reports latencies in.
func (d *Distribution) AddDuration(v time.Duration) {
	d.Add(float64(v) / float64(time.Millisecond))
}

// N reports the number of observations.
func (d *Distribution) N() int { return len(d.values) }

// Mean reports the arithmetic mean, or 0 for an empty distribution.
func (d *Distribution) Mean() float64 {
	if len(d.values) == 0 {
		return 0
	}
	return d.sum / float64(len(d.values))
}

// Min reports the smallest observation, or 0 for an empty distribution.
// It is O(1): the extremum is maintained on Add.
func (d *Distribution) Min() float64 {
	if len(d.values) == 0 {
		return 0
	}
	return d.min
}

// Max reports the largest observation, or 0 for an empty distribution.
// It is O(1): the extremum is maintained on Add.
func (d *Distribution) Max() float64 {
	if len(d.values) == 0 {
		return 0
	}
	return d.max
}

// StdDev reports the population standard deviation, or 0 when fewer
// than two observations exist.
func (d *Distribution) StdDev() float64 {
	if len(d.values) < 2 {
		return 0
	}
	mean := d.Mean()
	var ss float64
	for _, v := range d.values {
		dv := v - mean
		ss += dv * dv
	}
	return math.Sqrt(ss / float64(len(d.values)))
}

// Percentile reports the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks. It returns 0 for an empty
// distribution and panics on an out-of-range p.
//
// The sort is cached: the first order statistic after a batch of Adds
// pays O(n log n) once, and every further query until the next
// disordering Add is O(1) on the sorted values (a perf test pins the
// no-resort, no-allocation property). Experiment tables that read
// p50/p95/p99/max off one distribution therefore sort it exactly once.
func (d *Distribution) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range [0,100]", p))
	}
	if len(d.values) == 0 {
		return 0
	}
	d.sort()
	if len(d.values) == 1 {
		return d.values[0]
	}
	rank := p / 100 * float64(len(d.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.values[lo]
	}
	frac := rank - float64(lo)
	return d.values[lo]*(1-frac) + d.values[hi]*frac
}

// Median is shorthand for Percentile(50).
func (d *Distribution) Median() float64 { return d.Percentile(50) }

// A CDFPoint is one point of an empirical cumulative distribution:
// Frac of all observations are ≤ Value.
type CDFPoint struct {
	Value float64
	Frac  float64
}

// CDF returns the empirical CDF sampled at up to points evenly spaced
// quantiles (plus the minimum and maximum). It returns nil for an empty
// distribution.
func (d *Distribution) CDF(points int) []CDFPoint {
	if len(d.values) == 0 || points < 2 {
		return nil
	}
	d.sort()
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		frac := float64(i) / float64(points-1)
		idx := int(frac * float64(len(d.values)-1))
		out = append(out, CDFPoint{Value: d.values[idx], Frac: float64(idx+1) / float64(len(d.values))})
	}
	return out
}

// Values returns a sorted copy of all observations.
func (d *Distribution) Values() []float64 {
	d.sort()
	out := make([]float64, len(d.values))
	copy(out, d.values)
	return out
}

func (d *Distribution) sort() {
	if !d.sorted {
		sort.Float64s(d.values)
		d.sorted = true
	}
}

// String summarizes the distribution on one line.
func (d *Distribution) String() string {
	if d.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
		d.N(), d.Mean(), d.Percentile(50), d.Percentile(95), d.Percentile(99), d.Max())
}

// A TimePoint is one timestamped observation in a TimeSeries.
type TimePoint struct {
	At    time.Duration
	Value float64
}

// A TimeSeries accumulates timestamped observations in arrival order.
// The zero value is an empty series ready for use.
type TimeSeries struct {
	points []TimePoint
}

// Add records an observation at virtual time at.
func (ts *TimeSeries) Add(at time.Duration, v float64) {
	if n := len(ts.points); n == cap(ts.points) && n >= doubleFrom {
		ts.Grow(n)
	}
	ts.points = append(ts.points, TimePoint{At: at, Value: v})
}

// Grow ensures capacity for at least n more points without
// reallocating. Add grows a full series by its own length (see
// doubleFrom).
func (ts *TimeSeries) Grow(n int) {
	if n <= 0 || cap(ts.points)-len(ts.points) >= n {
		return
	}
	grown := make([]TimePoint, len(ts.points), len(ts.points)+n)
	copy(grown, ts.points)
	ts.points = grown
}

// N reports the number of points.
func (ts *TimeSeries) N() int { return len(ts.points) }

// Points returns the recorded points in arrival order. The returned
// slice aliases the series' storage and must not be modified.
func (ts *TimeSeries) Points() []TimePoint { return ts.points }

// A Bucket aggregates the points of one fixed-width time window.
type Bucket struct {
	Start time.Duration
	N     int
	Mean  float64
	Min   float64
	Max   float64
}

// Buckets aggregates the series into consecutive windows of the given
// width, returning one Bucket per nonempty window in time order.
func (ts *TimeSeries) Buckets(width time.Duration) []Bucket {
	if width <= 0 {
		panic("metrics: nonpositive bucket width")
	}
	byWindow := make(map[int64]*Bucket)
	var keys []int64
	for _, p := range ts.points {
		k := int64(p.At / width)
		b, ok := byWindow[k]
		if !ok {
			b = &Bucket{Start: time.Duration(k) * width, Min: p.Value, Max: p.Value}
			byWindow[k] = b
			keys = append(keys, k)
		}
		b.N++
		b.Mean += p.Value // sum for now; divided below
		if p.Value < b.Min {
			b.Min = p.Value
		}
		if p.Value > b.Max {
			b.Max = p.Value
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Bucket, 0, len(keys))
	for _, k := range keys {
		b := byWindow[k]
		b.Mean /= float64(b.N)
		out = append(out, *b)
	}
	return out
}

// Rate interprets each point's value as a byte count and reports the
// aggregate rate in bits per second between the first and last point.
// The first point anchors the interval and its value is excluded: a
// point's bytes belong to the interval ending at its timestamp, and
// the interval ending at the first point lies outside the span (an
// N-point series covers N-1 intervals). It returns 0 when the series
// spans no time.
func (ts *TimeSeries) Rate() float64 {
	if len(ts.points) < 2 {
		return 0
	}
	span := ts.points[len(ts.points)-1].At - ts.points[0].At
	if span <= 0 {
		return 0
	}
	var bytes float64
	for _, p := range ts.points[1:] {
		bytes += p.Value
	}
	return bytes * 8 / span.Seconds()
}

// FormatCDF renders a CDF as two tab-separated columns (value, frac)
// suitable for plotting, with an optional header naming the value
// column.
func FormatCDF(points []CDFPoint, valueLabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\tcdf\n", valueLabel)
	for _, p := range points {
		fmt.Fprintf(&b, "%.3f\t%.4f\n", p.Value, p.Frac)
	}
	return b.String()
}

// Mbps converts a rate in bits per second to megabits per second.
func Mbps(bitsPerSecond float64) float64 { return bitsPerSecond / 1e6 }
