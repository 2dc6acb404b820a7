package chaos

import (
	"math/rand"
	"time"

	"hvc/internal/channel"
	"hvc/internal/core"
	"hvc/internal/fault"
	"hvc/internal/sweep"
)

// The pools a generated trial draws from. Outage jobs skip embb-only on
// purpose only in the sense that it is listed — the baseline that
// ships onto a dead channel by design is still a valid chaos subject;
// its policy simply opts out of the liveness invariant.
var (
	genPolicies = []string{
		core.PolicyEMBBOnly, core.PolicyDChannel, core.PolicyPriority,
		core.PolicyObjectMap, core.PolicyRedundant,
	}
	genCCs      = []string{"cubic", "bbr", "vegas", "vivace", "hvc-bbr"}
	genChannels = []string{channel.NameEMBB, channel.NameURLLC}
	genKinds    = []fault.Kind{fault.Outage, fault.Burst, fault.Slump, fault.Spike}
)

// genJob draws one chaos trial from the meta-RNG: a bulk or outage
// cell over the fixed eMBB trace at one seed. The run seed is a fresh
// 63-bit draw so trials decorrelate even when the schedule collides.
func genJob(rng *rand.Rand, dur time.Duration) sweep.Spec {
	s := sweep.Spec{
		Policies:  []string{genPolicies[rng.Intn(len(genPolicies))]},
		Traces:    []string{"fixed"},
		SeedFirst: rng.Int63(),
		SeedCount: 1,
		Dur:       dur,
		Fault:     genSpec(rng, dur).String(),
	}
	if rng.Intn(2) == 0 {
		s.Exp, s.CCs = sweep.ExpBulk, []string{genCCs[rng.Intn(len(genCCs))]}
	} else {
		s.Exp, s.Reliable = sweep.ExpOutage, rng.Intn(2) == 0
	}
	c, ok := reparse(s)
	if !ok {
		panic("chaos: generated trial does not parse: " + s.Line()) // valid by construction
	}
	return c
}

// genSpec draws a fault schedule that is valid by construction: for
// each (channel, kind) slot it walks time strictly forward, so windows
// of the same kind on the same channel can never overlap — the one
// rule Validate enforces. Cross-kind and cross-channel overlap is left
// in deliberately; compound faults are where state-restore bugs live.
func genSpec(rng *rand.Rand, dur time.Duration) fault.Spec {
	var spec fault.Spec
	for _, ch := range genChannels {
		for _, kind := range genKinds {
			lastEnd := time.Duration(0)
			for n := rng.Intn(3); n > 0; n-- {
				horizon := dur - dur/8
				if lastEnd >= horizon {
					break
				}
				ev := fault.Event{
					Kind:    kind,
					Channel: ch,
					At:      lastEnd + randDur(rng, 0, horizon-lastEnd),
					Dur:     randDur(rng, dur/64+time.Millisecond, dur/4),
					Count:   1,
				}
				if rng.Intn(4) == 0 {
					ev.Count = 2 + rng.Intn(2)
					ev.Every = ev.Dur + randDur(rng, time.Millisecond, dur/8)
				}
				switch kind {
				case fault.Burst:
					ev.PGB = 0.005 + rng.Float64()*0.05
					ev.PBG = 0.1 + rng.Float64()*0.4
					ev.LossBad = 0.5 + rng.Float64()*0.5
					ev.LossGood = rng.Float64() * 0.01
				case fault.Slump:
					ev.Factor = 0.05 + rng.Float64()*0.45
				case fault.Spike:
					ev.Delay = randDur(rng, 10*time.Millisecond, 250*time.Millisecond)
				}
				lastEnd = ev.At + time.Duration(ev.Count-1)*ev.Every + ev.Dur
				spec.Events = append(spec.Events, ev)
			}
		}
	}
	return spec
}

// randDur draws a duration in [lo, lo+span] truncated to milliseconds,
// so generated specs stay short and round-trip exactly through the
// grammar.
func randDur(rng *rand.Rand, lo, span time.Duration) time.Duration {
	if span < 0 {
		span = 0
	}
	d := lo
	if span > 0 {
		d += time.Duration(rng.Int63n(int64(span) + 1))
	}
	return d.Truncate(time.Millisecond)
}
