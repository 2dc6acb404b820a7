// Package trace models time-varying channel conditions. The paper's
// experiments replay 5G eMBB traces recorded by DChannel (NSDI '23):
// Lowband stationary, Lowband driving, and mmWave driving. Those
// recordings are not available here, so this package generates
// synthetic traces from a Markov-modulated model calibrated to the
// summary statistics both papers publish: Lowband ≈50 ms RTT and
// ≈60 Mbps when stationary; driving RTT reaching ≈236 ms at the 98th
// percentile; mmWave driving with short outages that back up queues
// for multiple seconds. See DESIGN.md §1 for the substitution argument.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A Sample fixes the channel's conditions from At until the next
// sample: the base round-trip propagation delay and the link rate.
type Sample struct {
	At   time.Duration
	RTT  time.Duration
	Rate float64 // bits per second; 0 means the link is in outage
}

// A Trace is a time-indexed sequence of channel conditions. Traces
// repeat: reading past the end wraps around to the beginning, so a
// short recording can drive an arbitrarily long simulation.
type Trace struct {
	Name    string
	Samples []Sample // ascending At, first at 0
}

// Constant returns a trace with fixed conditions, used for URLLC
// (whose latency, per the 3GPP target, does not vary) and for the
// Fig. 1 fixed-parameter eMBB channel.
func Constant(name string, rtt time.Duration, rate float64) *Trace {
	return &Trace{Name: name, Samples: []Sample{{At: 0, RTT: rtt, Rate: rate}}}
}

// Duration reports the length of one repetition of the trace. A trace
// with a single sample reports one second, an arbitrary loop period for
// constant conditions.
func (t *Trace) Duration() time.Duration {
	if len(t.Samples) <= 1 {
		return time.Second
	}
	last := t.Samples[len(t.Samples)-1]
	// Assume the final sample holds for one inter-sample gap.
	return last.At + (last.At - t.Samples[len(t.Samples)-2].At)
}

// At returns the conditions in force at virtual time now, wrapping
// around the trace's duration. It panics on an empty trace.
func (t *Trace) At(now time.Duration) Sample {
	s, _ := t.Segment(now)
	return s
}

// NextChange returns the earliest time strictly after now at which the
// trace's conditions may change (the next sample boundary, accounting
// for wrap-around). For a constant trace it returns now plus one
// second; callers use it to re-poll a link stalled by an outage.
func (t *Trace) NextChange(now time.Duration) time.Duration {
	if len(t.Samples) <= 1 {
		return now + time.Second
	}
	_, until := t.Segment(now)
	return until
}

// Segment returns At(now) together with NextChange(now): the conditions
// in force and the absolute time they stop holding, from one search. A
// reader that keeps both (a link does) need not come back before then.
// It panics on an empty trace.
func (t *Trace) Segment(now time.Duration) (s Sample, until time.Duration) {
	if len(t.Samples) == 0 {
		panic("trace: empty trace " + t.Name)
	}
	if len(t.Samples) == 1 {
		return t.Samples[0], now + time.Second
	}
	dur := t.Duration()
	pos := now % dur
	// Bisect for the first sample after pos; the one before it is in
	// force. Every sample below lo is at or before pos, none from hi on is.
	lo, hi := 0, len(t.Samples)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.Samples[mid].At <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	until = now - pos + dur // wraps to the first sample of the next repetition
	if lo < len(t.Samples) {
		until = now - pos + t.Samples[lo].At
	}
	return t.Samples[lo-1], until
}

// RTTStats summarizes the RTT values across one repetition, weighted
// equally per sample (samples are evenly spaced by the generators).
func (t *Trace) RTTStats() (mean time.Duration, p98 time.Duration) {
	if len(t.Samples) == 0 {
		return 0, 0
	}
	rtts := make([]time.Duration, len(t.Samples))
	var sum time.Duration
	for i, s := range t.Samples {
		rtts[i] = s.RTT
		sum += s.RTT
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	idx := int(0.98 * float64(len(rtts)-1))
	return sum / time.Duration(len(rtts)), rtts[idx]
}

// step is the generator granularity; DChannel's traces are per-RTT
// probes, which 100 ms buckets approximate well for these models.
const step = 100 * time.Millisecond

// genConfig parameterizes the three-state (good / degraded / outage)
// Markov channel model behind the synthetic 5G traces.
type genConfig struct {
	name string
	// Per-state RTT range and rate range (bits/s). Outage forces rate 0.
	goodRTT, goodRTTJit time.Duration
	goodRate            float64
	degRTTLo, degRTTHi  time.Duration
	degRate             float64
	// Transition probabilities per step.
	pGoodToDeg   float64
	pDegToGood   float64
	pDegToOutage float64
	pOutageEnd   float64
}

func generate(cfg genConfig, seed int64, dur time.Duration) *Trace {
	rng := rand.New(rand.NewSource(seed))
	const (
		stGood = iota
		stDeg
		stOutage
	)
	state := stGood
	tr := &Trace{Name: cfg.name}
	if dur > 0 {
		tr.Samples = make([]Sample, 0, (dur+step-1)/step)
	}
	for at := time.Duration(0); at < dur; at += step {
		var s Sample
		s.At = at
		switch state {
		case stGood:
			jit := time.Duration(rng.Int63n(int64(2*cfg.goodRTTJit))) - cfg.goodRTTJit
			s.RTT = cfg.goodRTT + jit
			s.Rate = cfg.goodRate * (0.85 + 0.3*rng.Float64())
			if rng.Float64() < cfg.pGoodToDeg {
				state = stDeg
			}
		case stDeg:
			span := cfg.degRTTHi - cfg.degRTTLo
			s.RTT = cfg.degRTTLo + time.Duration(rng.Int63n(int64(span)))
			s.Rate = cfg.degRate * (0.5 + rng.Float64())
			switch r := rng.Float64(); {
			case r < cfg.pDegToGood:
				state = stGood
			case r < cfg.pDegToGood+cfg.pDegToOutage:
				state = stOutage
			}
		case stOutage:
			s.RTT = cfg.degRTTHi
			s.Rate = 0
			if rng.Float64() < cfg.pOutageEnd {
				state = stDeg
			}
		}
		if s.RTT < time.Millisecond {
			s.RTT = time.Millisecond
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

// LowbandStationary models 5G Lowband eMBB with the UE at rest: RTT
// near 50 ms with mild jitter and rare short degradations, rate near
// 60 Mbps. Table 1's "Stat." row uses it.
func LowbandStationary(seed int64, dur time.Duration) *Trace {
	return generate(genConfig{
		name:       "5g-lowband-stationary",
		goodRTT:    50 * time.Millisecond,
		goodRTTJit: 8 * time.Millisecond,
		goodRate:   60e6,
		degRTTLo:   80 * time.Millisecond,
		degRTTHi:   140 * time.Millisecond,
		degRate:    40e6,
		pGoodToDeg: 0.02,
		pDegToGood: 0.5,
	}, seed, dur)
}

// LowbandDriving models 5G Lowband eMBB under UE mobility: the same
// base channel but with frequent latency excursions, reaching roughly
// 236 ms at the 98th percentile as DChannel measured. Table 1's "Drv."
// row and Fig. 2's Lowband case use it.
func LowbandDriving(seed int64, dur time.Duration) *Trace {
	return generate(genConfig{
		name:         "5g-lowband-driving",
		goodRTT:      55 * time.Millisecond,
		goodRTTJit:   15 * time.Millisecond,
		goodRate:     55e6,
		degRTTLo:     120 * time.Millisecond,
		degRTTHi:     320 * time.Millisecond,
		degRate:      25e6,
		pGoodToDeg:   0.10,
		pDegToGood:   0.45,
		pDegToOutage: 0.02,
		pOutageEnd:   0.6,
	}, seed, dur)
}

// MmWaveDriving models mmWave eMBB under mobility: very high rate with
// line of sight, but blockages cause outages lasting up to seconds,
// during which queued traffic backs up — the source of Fig. 2's
// multi-second eMBB-only latency tail.
func MmWaveDriving(seed int64, dur time.Duration) *Trace {
	return generate(genConfig{
		name:         "5g-mmwave-driving",
		goodRTT:      35 * time.Millisecond,
		goodRTTJit:   10 * time.Millisecond,
		goodRate:     300e6,
		degRTTLo:     60 * time.Millisecond,
		degRTTHi:     200 * time.Millisecond,
		degRate:      30e6,
		pGoodToDeg:   0.08,
		pDegToGood:   0.35,
		pDegToOutage: 0.15,
		pOutageEnd:   0.15,
	}, seed, dur)
}

// URLLC returns the constant URLLC channel the paper emulates: 5 ms
// RTT at 2 Mbps.
func URLLC() *Trace { return Constant("urllc", 5*time.Millisecond, 2e6) }

// WriteCSV encodes the trace as "t_ms,rtt_ms,rate_mbps" rows with a
// header line.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %s\nt_ms,rtt_ms,rate_mbps\n", t.Name); err != nil {
		return err
	}
	for _, s := range t.Samples {
		_, err := fmt.Fprintf(bw, "%d,%.3f,%.3f\n",
			s.At.Milliseconds(), float64(s.RTT)/float64(time.Millisecond), s.Rate/1e6)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV decodes a trace written by WriteCSV. The name is taken from
// the "# trace" comment when present.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	tr := &Trace{Name: "csv"}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || text == "t_ms,rtt_ms,rate_mbps":
			continue
		case strings.HasPrefix(text, "# trace "):
			tr.Name = strings.TrimPrefix(text, "# trace ")
			continue
		case strings.HasPrefix(text, "#"):
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", line, len(fields))
		}
		tms, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %w", line, err)
		}
		rtt, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad rtt: %w", line, err)
		}
		rate, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad rate: %w", line, err)
		}
		tr.Samples = append(tr.Samples, Sample{
			At:   time.Duration(tms) * time.Millisecond,
			RTT:  time.Duration(rtt * float64(time.Millisecond)),
			Rate: rate * 1e6,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(tr.Samples) == 0 {
		return nil, fmt.Errorf("trace: no samples")
	}
	return tr, nil
}

// Scale returns a copy of t with every rate multiplied by rateFactor
// and every RTT by rttFactor, useful for what-if sweeps over recorded
// conditions.
func (t *Trace) Scale(rttFactor, rateFactor float64) *Trace {
	if rttFactor <= 0 || rateFactor < 0 {
		panic("trace: Scale factors must be positive (rate may be zero-preserving)")
	}
	out := &Trace{Name: t.Name + "-scaled", Samples: make([]Sample, len(t.Samples))}
	for i, s := range t.Samples {
		out.Samples[i] = Sample{
			At:   s.At,
			RTT:  time.Duration(float64(s.RTT) * rttFactor),
			Rate: s.Rate * rateFactor,
		}
	}
	return out
}

// Clip returns the prefix of t covering [0, dur). It panics when dur
// is not positive; the result keeps at least one sample.
func (t *Trace) Clip(dur time.Duration) *Trace {
	if dur <= 0 {
		panic("trace: Clip duration must be positive")
	}
	out := &Trace{Name: t.Name + "-clip"}
	for _, s := range t.Samples {
		if s.At >= dur {
			break
		}
		out.Samples = append(out.Samples, s)
	}
	if len(out.Samples) == 0 && len(t.Samples) > 0 {
		out.Samples = append(out.Samples, t.Samples[0])
	}
	return out
}

// Concat appends u's samples after t (shifting their timestamps by
// t's duration) and returns the combined trace.
func Concat(t, u *Trace) *Trace {
	off := t.Duration()
	out := &Trace{
		Name:    t.Name + "+" + u.Name,
		Samples: append([]Sample(nil), t.Samples...),
	}
	for _, s := range u.Samples {
		s.At += off
		out.Samples = append(out.Samples, s)
	}
	return out
}

// OutageFraction reports the fraction of samples with zero rate.
func (t *Trace) OutageFraction() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range t.Samples {
		if s.Rate == 0 {
			n++
		}
	}
	return float64(n) / float64(len(t.Samples))
}

// MeanRate reports the average rate over one repetition, counting
// outages as zero.
func (t *Trace) MeanRate() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range t.Samples {
		sum += s.Rate
	}
	return sum / float64(len(t.Samples))
}

// LowbandWalking models 5G Lowband eMBB with a pedestrian UE — between
// stationary and driving in volatility (DChannel recorded walking
// traces alongside the two the paper's evaluation uses).
func LowbandWalking(seed int64, dur time.Duration) *Trace {
	return generate(genConfig{
		name:         "5g-lowband-walking",
		goodRTT:      52 * time.Millisecond,
		goodRTTJit:   10 * time.Millisecond,
		goodRate:     58e6,
		degRTTLo:     90 * time.Millisecond,
		degRTTHi:     220 * time.Millisecond,
		degRate:      32e6,
		pGoodToDeg:   0.05,
		pDegToGood:   0.5,
		pDegToOutage: 0.01,
		pOutageEnd:   0.7,
	}, seed, dur)
}
