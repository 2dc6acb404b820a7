package arena

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hvc/internal/spec"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Flows:  2,
		Seed:   1,
		Mix:    []MixEntry{{Name: "cubic", Weight: 1}},
		Dur:    15 * time.Second,
		Epoch:  500 * time.Millisecond,
		Policy: "dchannel",
		Trace:  "fixed",
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("defaults:\n got %+v\nwant %+v", s, want)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, in := range []string{
		"",
		"flows=4 mix=cubic:2,copa join=2s rttspread=40ms",
		"flows=8 mix=cubic,bbr,copa,reno join=500ms rttspread=60ms seed=7 dur=30s epoch=1s policy=redundant trace=lowband-walking",
		"mix=copa dur=1s epoch=100ms",
	} {
		s1, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		if err := spec.RoundTrip(s1, ParseSpec); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, tc := range []struct{ in, wantErr string }{
		{"flows", "not key=value"},
		{"flows=2 flows=3", "duplicate"},
		{"bogus=1", "unknown key"},
		{"flows=0", "positive integer"},
		{"flows=65", "out of"},
		{"mix=nosuchcc", "unknown congestion control"},
		{"mix=cubic,cubic", "twice"},
		{"mix=cubic:0", "positive integer"},
		{"mix=:2", "empty CCA"},
		{"join=-1s", "non-negative"},
		{"seed=x", "not an integer"},
		{"dur=100ms", "below 500ms"},
		{"dur=1s epoch=1s", "out of [10ms,dur)"},
		{"policy=nosuchpolicy", "unknown steering policy"},
		{"trace=nosuchtrace", "unknown trace"},
		{"flows=4 join=10s dur=15s", "leaves no full epoch"},
		// Explicit zero is not "unset": these were silently replaced by
		// the 15s / dur-derived defaults.
		{"dur=0s", "not a positive duration; omit the key"},
		{"epoch=0s", "not a positive duration; omit the key"},
	} {
		_, err := ParseSpec(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseSpec(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
		}
	}
}

func TestCCForCyclicExpansion(t *testing.T) {
	s, err := ParseSpec("flows=5 mix=cubic:2,bbr")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cubic", "cubic", "bbr", "cubic", "cubic"}
	if got := s.CCs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("CCs() = %v, want %v", got, want)
	}
}

func TestJoinJitterBoundedAndSeedIsolated(t *testing.T) {
	s, err := ParseSpec("flows=6 join=2s dur=30s")
	if err != nil {
		t.Fatal(err)
	}
	base := make([]time.Duration, s.Flows)
	for i := 0; i < s.Flows; i++ {
		j := s.JoinAt(i)
		base[i] = j
		lo := time.Duration(i) * s.Join
		if j < lo || j >= lo+s.Join/8 {
			t.Fatalf("flow %d joins at %v, want [%v, %v)", i, j, lo, lo+s.Join/8)
		}
	}

	// Overriding one flow's seed must move only that flow's join.
	seeds := make([]int64, s.Flows)
	for i := range seeds {
		seeds[i] = s.FlowSeed(i)
	}
	seeds[3] ^= 0x5555
	s.FlowSeeds = seeds
	for i := 0; i < s.Flows; i++ {
		if i == 3 {
			continue
		}
		if s.JoinAt(i) != base[i] {
			t.Fatalf("perturbing flow 3's seed moved flow %d's join %v -> %v", i, base[i], s.JoinAt(i))
		}
	}
}

func TestExtraDelayRamp(t *testing.T) {
	s, err := ParseSpec("flows=4 rttspread=30ms dur=10s")
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i, w := range want {
		if got := s.ExtraDelay(i); got != w {
			t.Fatalf("ExtraDelay(%d) = %v, want %v", i, got, w)
		}
	}
	// A single flow never gets extra delay, spread or not.
	solo := Spec{Flows: 1, RTTSpread: 30 * time.Millisecond}
	if got := solo.ExtraDelay(0); got != 0 {
		t.Fatalf("solo ExtraDelay = %v, want 0", got)
	}
}

// TestCanonicalGolden pins String() byte for byte against a corpus
// rendered by the hand-rolled parser this package had before
// internal/spec (testdata/canonical.txt, "input => String()"): sweep cache keys and tracer run labels carry these strings,
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

// TestFlowSeedsArePinned pins the derived per-flow seeds and join
// times: each flow's event stream and its place in the join order come
// from them, so a change to the hash moves every arena result.
func TestFlowSeedsArePinned(t *testing.T) {
	for _, c := range []struct {
		spec  string
		seeds []int64
		joins []time.Duration
	}{
		{"flows=4 join=2s seed=7 dur=10s",
			[]int64{8581286081765471666, 1988111358474182198, -1693167626370456249, 4854513374406671322},
			[]time.Duration{58678581, 2192124192, 4024864577, 6091311197}},
		{"flows=3 join=500ms seed=1 dur=4s",
			[]int64{-1586005623519383010, -2274933249722822011, -1419658703116693069},
			[]time.Duration{61268297, 511884971, 1013523040}},
	} {
		s, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.seeds {
			if got := s.FlowSeed(i); got != c.seeds[i] {
				t.Errorf("%s: FlowSeed(%d) = %d, want %d", c.spec, i, got, c.seeds[i])
			}
			if got := s.JoinAt(i); got != c.joins[i] {
				t.Errorf("%s: JoinAt(%d) = %v, want %v", c.spec, i, got, c.joins[i])
			}
		}
	}
}
