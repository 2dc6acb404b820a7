package fleet

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hvc/internal/spec"
)

func TestParseSpecDefaults(t *testing.T) {
	got, err := ParseSpec("")
	if err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	want := Spec{
		UEs:  1000,
		Seed: 1,
		Mix:  []spec.Weighted{{Name: AppBulk, Weight: 1}, {Name: AppVideo, Weight: 1}, {Name: AppWeb, Weight: 1}},
		CC:   "bbr", Policies: []string{"dchannel"}, Traces: []string{"lowband-driving"},
		Dur: 2 * time.Second, Pages: 1, Loads: 1,
		Stagger: 5 * time.Second, Fault: "none",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults:\n got %+v\nwant %+v", got, want)
	}
}

// TestParseSpecRoundTrip pins the canonicalization contract directly
// on representative specs; FuzzFleetSpecParse extends it to arbitrary
// input.
func TestParseSpecRoundTrip(t *testing.T) {
	for _, in := range []string{
		"",
		"ues=10000 seed=42",
		"mix=bulk:2,web:1 cc=cubic policy=dchannel,embb-only",
		"trace=lowband-driving,mmwave-driving dur=450ms pages=3 loads=2",
		"seed=-7 stagger=30s",
		"fault=outage:ch=embb,at=1s,dur=500ms mix=bulk:1",
		"  ues=5\t dur=2.5s  ",
		"mix=video",
		"mix=arena:2,bulk:1 cc=cubic dur=1s",
	} {
		sp, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		if err := spec.RoundTrip(sp, ParseSpec); err != nil {
			t.Errorf("%q: %v", in, err)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"ues", "not key=value"},
		{"ues=", "not key=value"},
		{"bogus=1", "unknown key"},
		{"ues=5 ues=6", "duplicate key"},
		{"ues=0", "positive integer"},
		{"ues=-3", "positive integer"},
		{"ues=1000001", "out of"},
		{"seed=abc", "not an integer"},
		{"mix=ftp:1", "unknown app"},
		{"mix=bulk:0", "positive integer"},
		{"mix=bulk:1,bulk:2", "twice"},
		{"cc=tahoe", "unknown congestion control"},
		{"policy=teleport", "unknown steering policy"},
		{"policy=dchannel,dchannel", "twice"},
		{"policy=dchannel,,embb-only", "empty list element"},
		{"trace=underwater", "unknown trace"},
		{"dur=50ms", "below 100ms"},
		{"dur=-1s", "non-negative duration"},
		{"dur=fast", "non-negative duration"},
		{"mix=web:1 policy=priority", "do not support"},
		{"fault=outage:ch=embb,at=1s", "dur"},
		{"fault=outage:ch=mmwave,at=1s,dur=1s", "channel"},
		{"mix=arena:1 dur=200ms", "arena sessions need dur >= 500ms"},
		// Explicit zero is not "unset": these were silently replaced by
		// the 5s / 2s defaults.
		{"stagger=0s", "not a positive duration; omit the key"},
		{"dur=0s", "not a positive duration; omit the key"},
		{"mix=:2", "empty app name"},
	} {
		_, err := ParseSpec(tc.in)
		if err == nil {
			t.Errorf("ParseSpec(%q): accepted, want error containing %q", tc.in, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%q) = %v, want error containing %q", tc.in, err, tc.want)
		}
	}
}

// TestValidateFillsDefaults covers the programmatic construction path:
// a zero-ish Spec validates into exactly what ParseSpec("") yields.
func TestValidateFillsDefaults(t *testing.T) {
	var spec Spec
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want, err := ParseSpec("")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want.Seed = 0 // ParseSpec defaults seed to 1; programmatic zero stays
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("Validate:\n got %+v\nwant %+v", spec, want)
	}
}

func TestAppCountsPartitionFleet(t *testing.T) {
	spec, err := ParseSpec("ues=300 seed=11 mix=bulk:3,video:1,web:2")
	if err != nil {
		t.Fatal(err)
	}
	counts := spec.AppCounts()
	sum := 0
	for _, app := range []string{AppBulk, AppVideo, AppWeb} {
		n, ok := counts[app]
		if !ok {
			t.Fatalf("AppCounts missing %q: %v", app, counts)
		}
		if n == 0 {
			t.Errorf("app %q drew zero UEs out of 300; weighted draw is broken", app)
		}
		sum += n
	}
	if sum != spec.UEs {
		t.Fatalf("AppCounts sums to %d, want %d", sum, spec.UEs)
	}
	// The hash-only count must agree with the per-UE draw the run uses.
	fromDraw := map[string]int{}
	for ue := 0; ue < spec.UEs; ue++ {
		fromDraw[spec.appFor(ue)]++
	}
	for app := range counts {
		if counts[app] != fromDraw[app] {
			t.Fatalf("AppCounts[%s]=%d but appFor draws %d", app, counts[app], fromDraw[app])
		}
	}
}

// TestSpecFaultCanonicalized pins that the stored fault string is the
// fault package's canonical rendering, not the user's spelling.
func TestSpecFaultCanonicalized(t *testing.T) {
	a, err := ParseSpec("fault=outage:ch=embb,at=1000ms,dur=500ms mix=bulk:1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("fault=outage:ch=embb,at=1s,dur=0.5s mix=bulk:1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fault != b.Fault {
		t.Fatalf("equivalent fault spellings canonicalize differently: %q vs %q", a.Fault, b.Fault)
	}
}

// TestCanonicalGolden pins String() byte for byte against a corpus
// rendered by the hand-rolled parser this package had before
// internal/spec (testdata/canonical.txt, "input => String()"): the spec field of hvc-fleet-report/v1 and the fleet half of sim_digest carry these strings,
// so they must not move.
func TestCanonicalGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/canonical.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		in, want, _ := strings.Cut(line, " => ")
		got, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got.String() != want {
			t.Errorf("ParseSpec(%q).String()\n got %s\nwant %s", in, got, want)
		}
		if err := spec.RoundTrip(got, ParseSpec); err != nil {
			t.Errorf("%q: %v", in, err)
		}
	}
}
