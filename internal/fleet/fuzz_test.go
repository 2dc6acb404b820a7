package fleet

import (
	"testing"

	"hvc/internal/spec"
)

// FuzzFleetSpecParse exercises the fleet-spec parser with arbitrary
// input: it must never panic, and any spec it accepts must round-trip
// — the canonical String reparses to the same spec and is a fixed
// point. This is the same contract FuzzSweepSpecParse holds the sweep
// grammar to.
func FuzzFleetSpecParse(f *testing.F) {
	f.Add("")
	f.Add("ues=10000 seed=1 mix=bulk:2,web:1 cc=bbr policy=dchannel,embb-only dur=2s")
	f.Add("ues=1000 mix=video:1 policy=dchannel trace=lowband-driving,mmwave-driving dur=4s")
	f.Add("ues=500 fault=outage:ch=embb,at=10s,dur=2s stagger=30s")
	f.Add("fault=outage:ch=embb,at=1s,dur=500ms;burst:ch=urllc,at=2s,dur=1s,pgb=0.3 mix=bulk:1")
	f.Add("ues=5 seed=-9223372036854775808")
	f.Add("mix=bulk:1,video:2,web:3 pages=6 loads=2")
	f.Add("ues=1000001")
	f.Add("dur=99ms")
	f.Add("stagger=0s")
	f.Add("  ues=5\t dur=1h  ")
	f.Add("mix=web:1 policy=priority")
	f.Add("fault=none")
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseSpec(in)
		if err != nil {
			return // rejected: fine, as long as no panic
		}
		if err := spec.RoundTrip(sp, ParseSpec); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
	})
}
