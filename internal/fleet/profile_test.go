package fleet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hvc/internal/fault"
	"hvc/internal/sketch"
)

// permuted returns 0..n-1 shuffled by a fixed seed, so property tests
// visit UEs in an arbitrary-but-reproducible order.
func permuted(n int, seed int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// TestProfileOrderInvariance is the derivation half of the fleet's
// central property: a UE's profile is a pure function of (spec, index),
// so visiting UEs forward, backward, or shuffled yields the same
// profile for every session. Any shared RNG or visit-order state
// introduced into the derivation path breaks this immediately.
func TestProfileOrderInvariance(t *testing.T) {
	spec, err := ParseSpec("ues=200 seed=9 mix=bulk:2,video:1,web:1 policy=dchannel,embb-only trace=lowband-driving,mmwave-driving stagger=3s fault=outage:ch=embb,at=1s,dur=500ms,every=2s,count=3")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fault.ParseSpec(spec.Fault)
	if err != nil {
		t.Fatal(err)
	}
	forward := make([]Profile, spec.UEs)
	for ue := 0; ue < spec.UEs; ue++ {
		forward[ue] = spec.profileFor(ue, fs)
	}
	for name, order := range map[string][]int{
		"reverse":  permutedReverse(spec.UEs),
		"shuffled": permuted(spec.UEs, 1),
	} {
		for _, ue := range order {
			if got := spec.profileFor(ue, fs); !reflect.DeepEqual(got, forward[ue]) {
				t.Fatalf("%s visit order changed ue %d's profile:\n got %+v\nwant %+v", name, ue, got, forward[ue])
			}
		}
	}
}

func permutedReverse(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	return order
}

// TestProfileFields checks each derived field lands in its domain and
// that every library entry is actually drawn somewhere — a stuck hash
// would pass order-invariance while collapsing the fleet's diversity.
func TestProfileFields(t *testing.T) {
	spec, err := ParseSpec("ues=200 seed=4 policy=dchannel,embb-only trace=lowband-driving,mmwave-driving stagger=2s")
	if err != nil {
		t.Fatal(err)
	}
	usedPolicy, usedTrace, usedApp := map[string]bool{}, map[string]bool{}, map[string]bool{}
	offsets := map[time.Duration]bool{}
	for ue := 0; ue < spec.UEs; ue++ {
		p := spec.profileFor(ue, fault.Spec{})
		if p.UE != ue {
			t.Fatalf("profile for ue %d claims UE=%d", ue, p.UE)
		}
		if p.Offset < 0 || p.Offset >= spec.Stagger {
			t.Fatalf("ue %d offset %v outside [0, %v)", ue, p.Offset, spec.Stagger)
		}
		if p.Seed < 0 {
			t.Fatalf("ue %d derived negative seed %d", ue, p.Seed)
		}
		if p.Fault != "" {
			t.Fatalf("ue %d has fault %q from an empty fleet scenario", ue, p.Fault)
		}
		usedPolicy[p.Policy], usedTrace[p.Trace], usedApp[p.App] = true, true, true
		offsets[p.Offset] = true
	}
	for _, pol := range spec.Policies {
		if !usedPolicy[pol] {
			t.Errorf("policy %q never drawn across %d UEs", pol, spec.UEs)
		}
	}
	for _, tr := range spec.Traces {
		if !usedTrace[tr] {
			t.Errorf("trace %q never drawn across %d UEs", tr, spec.UEs)
		}
	}
	for _, e := range spec.Mix {
		if !usedApp[e.Name] {
			t.Errorf("app %q never drawn across %d UEs", e.Name, spec.UEs)
		}
	}
	if len(offsets) < spec.UEs/2 {
		t.Errorf("only %d distinct offsets across %d UEs; stagger draw looks degenerate", len(offsets), spec.UEs)
	}
}

func TestShiftFault(t *testing.T) {
	src, err := fault.ParseSpec("outage:ch=embb,at=1s,dur=500ms,every=2s,count=3")
	if err != nil {
		t.Fatal(err)
	}
	// Occurrences on the fleet timeline: [1s,1.5s), [3s,3.5s), [5s,5.5s).
	cases := []struct {
		offset time.Duration
		want   [][2]time.Duration // local {At, Dur} per surviving window
	}{
		{0, [][2]time.Duration{{time.Second, 500 * time.Millisecond}, {3 * time.Second, 500 * time.Millisecond}, {5 * time.Second, 500 * time.Millisecond}}},
		{1200 * time.Millisecond, [][2]time.Duration{{0, 300 * time.Millisecond}, {1800 * time.Millisecond, 500 * time.Millisecond}, {3800 * time.Millisecond, 500 * time.Millisecond}}},
		{3500 * time.Millisecond, [][2]time.Duration{{1500 * time.Millisecond, 500 * time.Millisecond}}}, // window 2 ends exactly at the session start: dropped
		{10 * time.Second, nil},
	}
	for _, tc := range cases {
		got := shiftFault(src, tc.offset)
		if len(got.Events) != len(tc.want) {
			t.Fatalf("offset %v: %d events, want %d: %+v", tc.offset, len(got.Events), len(tc.want), got.Events)
		}
		for i, w := range tc.want {
			ev := got.Events[i]
			if ev.At != w[0] || ev.Dur != w[1] {
				t.Errorf("offset %v event %d: at=%v dur=%v, want at=%v dur=%v", tc.offset, i, ev.At, ev.Dur, w[0], w[1])
			}
			if ev.Every != 0 || ev.Count != 1 {
				t.Errorf("offset %v event %d: repeats not expanded: every=%v count=%d", tc.offset, i, ev.Every, ev.Count)
			}
		}
		// The shifted schedule must re-render and re-parse: profileFor
		// hands it to the session as a string.
		if !got.Empty() {
			if _, err := fault.ParseSpec(got.String()); err != nil {
				t.Errorf("offset %v: shifted spec %q does not re-parse: %v", tc.offset, got.String(), err)
			}
		}
	}
}

// groupBytes serializes a sketch group deterministically: name-sorted
// marshaled sketches. Byte equality here means every observation
// stream fed into the groups was identical.
func groupBytes(g *sketch.Group) []byte {
	var buf bytes.Buffer
	g.Do(func(name string, s *sketch.Sketch) {
		buf.WriteString(name)
		buf.WriteByte(0)
		buf.Write(s.Marshal())
	})
	return buf.Bytes()
}

// TestSessionStreamOrderInvariance runs real sessions — not stubs —
// and checks the other half of the central property: no session's
// event stream (observed through its complete metric output) depends
// on which other sessions ran before it in the same goroutine. This is
// what licenses arbitrary shard assignment.
func TestSessionStreamOrderInvariance(t *testing.T) {
	spec, err := ParseSpec("ues=6 seed=5 dur=200ms stagger=1s")
	if err != nil {
		t.Fatal(err)
	}
	fs := fault.Spec{}
	run := func(order []int) map[int][]byte {
		out := make(map[int][]byte, len(order))
		for _, ue := range order {
			g := sketch.NewGroup()
			if err := runUE(spec.profileFor(ue, fs), spec, g); err != nil {
				t.Fatalf("ue %d: %v", ue, err)
			}
			out[ue] = groupBytes(g)
		}
		return out
	}
	forward := run([]int{0, 1, 2, 3, 4, 5})
	for name, order := range map[string][]int{
		"reverse":  {5, 4, 3, 2, 1, 0},
		"shuffled": {3, 0, 5, 1, 4, 2},
	} {
		for ue, got := range run(order) {
			if !bytes.Equal(got, forward[ue]) {
				t.Fatalf("%s run order changed ue %d's metric stream", name, ue)
			}
		}
	}
}

// TestDeriveIsPinned pins a few per-UE draws: every fleet profile
// (app, policy, trace, seed, start offset) is derived from them, so a
// change to the hash moves every fleet result.
func TestDeriveIsPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		ue   int
		salt uint64
		want uint64
	}{
		{1, 0, saltApp, 0x1e45e2a324b7110a},
		{1, 7, saltSeed, 0xb8261e6f40119b4e},
		{42, 999, saltOffset, 0x5a23f199600932c0},
		{-3, 12345, saltTrace, 0x175224d41a0c1105},
	} {
		if got := derive(c.seed, c.ue, c.salt); got != c.want {
			t.Errorf("derive(%d, %d, %d) = %#x, want %#x", c.seed, c.ue, c.salt, got, c.want)
		}
	}
}
