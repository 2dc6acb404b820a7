// Package fault is the deterministic, virtual-time fault-injection
// subsystem: it drives scripted and seeded-random fault processes
// against the channels of a simulation — full outages (blackhole
// windows, e.g. cellular handover gaps), Gilbert–Elliott two-state
// loss bursts, rate slumps, and delay spikes — the condition regimes
// realistic RAN emulators (ERRANT, ZEUS) show dominate transport
// behaviour and which i.i.d. loss alone cannot express.
//
// A scenario is a compact, space-free Spec string so it can ride in
// hvcbench/hvcsweep flags and sweep-spec fields:
//
//	outage:ch=embb,at=5s,dur=2s,every=8s,count=2;burst:ch=embb,at=0s,dur=30s,pgb=0.02
//
// Clauses are ';'-separated; each is kind:key=value pairs joined by
// commas. Kinds and their keys (beyond the common ch/at/dur and the
// optional every/count repetition):
//
//	outage  — no extra keys; the channel blacks out for the window.
//	burst   — pgb, pbg (per-packet Gilbert–Elliott transition
//	          probabilities good→bad and bad→good), loss (drop
//	          probability in the bad state), lossgood (good state).
//	slump   — factor (trace rate multiplier, > 0).
//	spike   — delay (extra one-way delay).
//
// Everything is deterministic: scripted windows fire at fixed virtual
// times, and the burst processes draw from private streams derived
// from the loop seed, so a scenario never perturbs the delivery trace
// of a channel it does not name.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hvc/internal/spec"
)

// Kind names a fault process type.
type Kind string

// The fault kinds a scenario clause can request.
const (
	Outage Kind = "outage" // full blackout window
	Burst  Kind = "burst"  // Gilbert–Elliott loss burst
	Slump  Kind = "slump"  // rate multiplier window
	Spike  Kind = "spike"  // extra one-way delay window
)

// Limits that keep a typo from expanding into an unbounded schedule.
const (
	maxCount = 10_000
	maxTime  = 1000 * time.Hour
)

// An Event is one clause of a scenario: a fault of one kind against
// one channel, over one window (optionally repeated).
type Event struct {
	Kind    Kind
	Channel string
	// At is the start of the first window; Dur its length.
	At, Dur time.Duration
	// Every and Count repeat the window: occurrences start at
	// At + k*Every for k in [0, Count). Count <= 1 means one window.
	Every time.Duration
	Count int

	// Gilbert–Elliott parameters (Burst only): per-packet transition
	// probabilities and per-state drop probabilities.
	PGB, PBG          float64
	LossBad, LossGood float64

	// Factor multiplies the trace rate (Slump only).
	Factor float64

	// Delay is the extra one-way delay (Spike only).
	Delay time.Duration
}

// occurrences reports how many windows the event schedules.
func (e Event) occurrences() int {
	if e.Count < 1 {
		return 1
	}
	return e.Count
}

// A Spec is a parsed fault scenario: zero or more events. The zero
// value is the empty scenario (no faults).
type Spec struct {
	Events []Event
}

// Empty reports whether the scenario injects nothing.
func (s Spec) Empty() bool { return len(s.Events) == 0 }

// ParseSpec parses the scenario syntax described in the package
// comment. The empty string and "none" parse to the empty scenario.
// The result is validated and canonical: parsing the String of a
// parsed spec yields the same spec.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return Spec{}, nil
	}
	var spec Spec
	for _, clause := range strings.Split(s, ";") {
		ev, err := parseClause(clause)
		if err != nil {
			return Spec{}, err
		}
		spec.Events = append(spec.Events, ev)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// parseClause parses one kind:key=value,... clause: a field table over
// internal/spec holding the common window keys plus the keys of the
// clause's kind, so a key of another kind is an unknown key.
func parseClause(clause string) (Event, error) {
	kindStr, rest, ok := strings.Cut(clause, ":")
	if !ok || rest == "" {
		return Event{}, fmt.Errorf("fault: clause %q is not kind:key=value,...", clause)
	}
	ev := Event{Kind: Kind(kindStr), Count: 1}
	fields := []spec.Field{
		spec.String("ch", &ev.Channel),
		spec.DurIn("at", &ev.At, 0, maxTime),
		spec.DurIn("dur", &ev.Dur, 1, maxTime),
		spec.DurIn("every", &ev.Every, 1, maxTime),
		spec.Int("count", &ev.Count),
	}
	switch ev.Kind {
	case Outage:
	case Burst:
		ev.PGB, ev.PBG, ev.LossBad = 0.01, 0.25, 1
		fields = append(fields, spec.Prob("pgb", &ev.PGB), spec.Prob("pbg", &ev.PBG),
			spec.Prob("loss", &ev.LossBad), spec.Prob("lossgood", &ev.LossGood))
	case Slump:
		ev.Factor = 0.1
		fields = append(fields, spec.PosFloat("factor", &ev.Factor))
	case Spike:
		ev.Delay = 100 * time.Millisecond
		fields = append(fields, spec.DurIn("delay", &ev.Delay, 1, maxTime))
	default:
		return Event{}, fmt.Errorf("fault: unknown kind %q (outage, burst, slump, spike)", kindStr)
	}
	if _, err := spec.Parse("fault", strings.Split(rest, ","), fields); err != nil {
		return Event{}, fmt.Errorf("%w in clause %q", err, clause)
	}
	return ev, nil
}

// Validate checks the scenario's internal consistency: every clause
// has a channel and a window, repetitions do not self-overlap, and no
// two windows of the same kind overlap on the same channel (each kind
// holds one state slot per link, so overlapping windows would restore
// it wrongly). Channel names are resolved later, against the group the
// scenario is injected into.
func (s Spec) Validate() error {
	type span struct {
		start, end time.Duration
	}
	windows := map[string][]span{}
	for _, ev := range s.Events {
		if ev.Channel == "" {
			return fmt.Errorf("fault: %s clause has no ch=", ev.Kind)
		}
		if ev.Dur <= 0 {
			return fmt.Errorf("fault: %s clause on %q has no dur=", ev.Kind, ev.Channel)
		}
		if ev.At < 0 || ev.At > maxTime {
			return fmt.Errorf("fault: %s clause on %q: at=%v out of range", ev.Kind, ev.Channel, ev.At)
		}
		n := ev.occurrences()
		if n > maxCount {
			return fmt.Errorf("fault: %s clause on %q: count=%d out of [1,%d]", ev.Kind, ev.Channel, n, maxCount)
		}
		if n > 1 {
			if ev.Every < ev.Dur {
				return fmt.Errorf("fault: %s clause on %q repeats every %v, shorter than its dur %v",
					ev.Kind, ev.Channel, ev.Every, ev.Dur)
			}
		} else if ev.Every != 0 {
			return fmt.Errorf("fault: %s clause on %q sets every= without count>1", ev.Kind, ev.Channel)
		}
		if last := ev.At + time.Duration(n-1)*ev.Every + ev.Dur; last > maxTime || last < 0 {
			return fmt.Errorf("fault: %s clause on %q extends past %v", ev.Kind, ev.Channel, maxTime)
		}
		key := ev.Channel + "\x00" + string(ev.Kind)
		for k := 0; k < n; k++ {
			start := ev.At + time.Duration(k)*ev.Every
			windows[key] = append(windows[key], span{start, start + ev.Dur})
		}
	}
	for key, spans := range windows {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				ch, kind, _ := strings.Cut(key, "\x00")
				return fmt.Errorf("fault: overlapping %s windows on channel %q", kind, ch)
			}
		}
	}
	return nil
}

// String renders the scenario canonically: clause order preserved,
// every applicable key in fixed order, repetition keys only when the
// clause repeats. The empty scenario renders as "none" so the result
// is always a valid value in key=value grammars.
// ParseSpec(s.String()) reproduces s.
func (s Spec) String() string {
	if s.Empty() {
		return "none"
	}
	var b strings.Builder
	for i, ev := range s.Events {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s:ch=%s,at=%s,dur=%s", ev.Kind, ev.Channel, ev.At, ev.Dur)
		if ev.occurrences() > 1 {
			fmt.Fprintf(&b, ",every=%s,count=%d", ev.Every, ev.Count)
		}
		switch ev.Kind {
		case Burst:
			fmt.Fprintf(&b, ",pgb=%s,pbg=%s,loss=%s,lossgood=%s",
				fl(ev.PGB), fl(ev.PBG), fl(ev.LossBad), fl(ev.LossGood))
		case Slump:
			fmt.Fprintf(&b, ",factor=%s", fl(ev.Factor))
		case Spike:
			fmt.Fprintf(&b, ",delay=%s", ev.Delay)
		}
	}
	return b.String()
}

func fl(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Default builds the canonical blackout schedule the outage experiment
// uses when no scenario is given: two eMBB blackouts scaled to the run
// length (at 1/4 and 5/8 of the run, each 1/8 of the run long) — long
// enough to span several RTOs at full scale, short enough that the
// tiny determinism-matrix scale still fits both windows.
func Default(ch string, dur time.Duration) Spec {
	return Spec{Events: []Event{
		{Kind: Outage, Channel: ch, At: dur / 4, Dur: dur / 8, Count: 1},
		{Kind: Outage, Channel: ch, At: 5 * dur / 8, Dur: dur / 8, Count: 1},
	}}
}
