package fleet

import (
	"time"

	"hvc/internal/fault"
	"hvc/internal/spec"
)

// Per-UE inputs are derived by pure hashing from (fleet seed, UE
// index, salt): no RNG object, no allocation, and — critically — no
// dependence on the order UEs are visited or the shard they land in.
// This is the fleet-scale version of internal/fault's per-link private
// RNG streams, taken one step further: where fault hashes a name into
// a seed once per link, fleet derives every per-session input from a
// finalizer hash, so a session's entire event stream is a function of
// its identity alone. A property test permutes UE start order and
// shard assignment and checks no session's stream moves.

// Salts separate the derivation streams; two draws for the same UE
// never correlate.
const (
	saltApp uint64 = iota + 1
	saltPolicy
	saltTrace
	saltSeed
	saltOffset
)

// derive hashes (fleet seed, UE index, salt) into one uniform draw
// through the splitmix64 finalizer (spec.Mix64).
func derive(fleetSeed int64, ue int, salt uint64) uint64 {
	h := spec.Mix64(uint64(fleetSeed) ^ 0x9e3779b97f4a7c15)
	h = spec.Mix64(h ^ uint64(ue))
	return spec.Mix64(h ^ salt)
}

// A Profile is one UE's complete session identity: everything its
// simulation consumes, derived from the spec and the UE index alone.
type Profile struct {
	UE     int
	App    string
	Policy string
	Trace  string
	// Seed seeds the session's private event loop and trace
	// realization.
	Seed int64
	// Offset is the session's start time on the fleet's absolute
	// timeline, drawn uniformly from [0, Stagger).
	Offset time.Duration
	// Fault is the shared fleet scenario shifted into session-local
	// time ("none" when nothing survives the shift).
	Fault string
}

// appFor draws the UE's app from the weighted mix.
func (s Spec) appFor(ue int) string { return spec.Pick(s.Mix, derive(s.Seed, ue, saltApp)) }

// offsetFor draws the UE's start offset.
func (s Spec) offsetFor(ue int) time.Duration {
	if s.Stagger <= 0 {
		return 0
	}
	return time.Duration(derive(s.Seed, ue, saltOffset) % uint64(s.Stagger))
}

// profileFor derives one UE's complete profile. fs is the parsed
// shared fault scenario (pass the zero Spec when the fleet injects
// nothing — the common case allocates nothing here).
func (s Spec) profileFor(ue int, fs fault.Spec) Profile {
	p := Profile{
		UE:     ue,
		App:    s.appFor(ue),
		Policy: s.Policies[derive(s.Seed, ue, saltPolicy)%uint64(len(s.Policies))],
		Trace:  s.Traces[derive(s.Seed, ue, saltTrace)%uint64(len(s.Traces))],
		Seed:   int64(derive(s.Seed, ue, saltSeed) >> 1), // non-negative for readable logs
		Offset: s.offsetFor(ue),
	}
	if !fs.Empty() {
		p.Fault = shiftFault(fs, p.Offset).String()
	}
	return p
}

// shiftFault translates the fleet-absolute scenario into one session's
// local time: every window moves earlier by the session's start
// offset, windows entirely before the session start drop, and a
// window straddling it clips to begin at local zero. Repeats expand to
// individual windows first, because the occurrences of one clause can
// straddle the start and must clip or drop independently. The source
// scenario is validated and non-overlapping per kind+channel; a
// uniform shift preserves both, so the result is valid by
// construction.
func shiftFault(fs fault.Spec, offset time.Duration) fault.Spec {
	var out fault.Spec
	for _, ev := range fs.Events {
		n := 1
		if ev.Count > 1 {
			n = ev.Count
		}
		for k := 0; k < n; k++ {
			e := ev
			e.At = ev.At + time.Duration(k)*ev.Every - offset
			e.Every, e.Count = 0, 1
			if e.At+e.Dur <= 0 {
				continue // ended before this session began
			}
			if e.At < 0 {
				e.Dur += e.At
				e.At = 0
			}
			out.Events = append(out.Events, e)
		}
	}
	return out
}
