package arena

import (
	"testing"

	"hvc/internal/spec"
)

// FuzzArenaSpecParse drives the spec grammar with arbitrary input and
// pins the parser's contract: it never panics, and any input it
// accepts yields a spec whose canonical String parses back to the
// identical spec (the property the sweep cache keys depend on).
func FuzzArenaSpecParse(f *testing.F) {
	f.Add("")
	f.Add("flows=4 mix=cubic:2,copa join=2s rttspread=40ms seed=1 dur=15s epoch=500ms policy=dchannel trace=fixed")
	f.Add("flows=64 mix=cubic,bbr,copa,reno,vegas,vivace join=50ms dur=30s")
	f.Add("mix=copa:3 trace=lowband-driving policy=redundant")
	f.Add("flows=0")
	f.Add("mix=:1,cubic:")
	f.Add("join=-5s seed=-9223372036854775808")
	f.Add("flows=2 flows=2")
	f.Add("epoch=9ms dur=600ms")
	f.Add("epoch=0s")
	f.Add("dur=0s join=0s")

	f.Fuzz(func(t *testing.T, in string) {
		s1, err := ParseSpec(in)
		if err != nil {
			return
		}
		if err := spec.RoundTrip(s1, ParseSpec); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		// Derived per-flow values must stay in their documented bounds
		// for every accepted spec.
		for i := 0; i < s1.Flows; i++ {
			if !validCCName(s1.CCFor(i)) {
				t.Fatalf("flow %d assigned CCA %q outside the mix", i, s1.CCFor(i))
			}
			if d := s1.ExtraDelay(i); d < 0 || d > s1.RTTSpread {
				t.Fatalf("flow %d extra delay %v outside [0,%v]", i, d, s1.RTTSpread)
			}
			if j := s1.JoinAt(i); j < s1.joinBase(i) || (s1.Join > 0 && j >= s1.joinBase(i)+s1.Join/8+1) {
				t.Fatalf("flow %d join %v outside jitter window", i, j)
			}
		}
	})
}

func validCCName(cc string) bool {
	// The fuzz property only needs "was in the mix"; the parser already
	// validated the names against core.
	return cc != ""
}
