package fault

import (
	"testing"

	"hvc/internal/spec"
)

// FuzzFaultSpecParse exercises the scenario parser with arbitrary
// input: it must never panic, and any scenario it accepts must
// round-trip — the canonical String reparses to the same spec and is a
// fixed point.
func FuzzFaultSpecParse(f *testing.F) {
	f.Add("none")
	f.Add("outage:ch=embb,at=5s,dur=2s")
	f.Add("outage:ch=embb,at=5s,dur=2s,every=8s,count=3")
	f.Add("burst:ch=embb,at=0s,dur=30s,pgb=0.02,pbg=0.3,loss=0.9,lossgood=0.001")
	f.Add("slump:ch=embb,at=2s,dur=4s,factor=0.25")
	f.Add("spike:ch=urllc,at=1.5s,dur=500ms,delay=80ms")
	f.Add("outage:ch=embb,at=1s,dur=1s;burst:ch=urllc,at=0s,dur=10s")
	f.Add("outage:ch=embb,at=0s,dur=5s;outage:ch=embb,at=2s,dur=1s")
	f.Add("burst:ch=x,at=0s,dur=1s,pgb=1e-300")
	f.Add("outage:ch=embb,at=999h,dur=2h")
	f.Add(";;;")
	f.Add("burst:ch=x,at=0s,dur=1s,pgb=NaN")
	f.Add("slump:ch=x,at=0s,dur=1s,factor=+Inf")
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
