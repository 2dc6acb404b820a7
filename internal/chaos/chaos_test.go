package chaos

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"hvc/internal/fault"
	"hvc/internal/invariant"
	"hvc/internal/spec"
	"hvc/internal/telemetry"
)

func TestMain(m *testing.M) {
	invariant.SetEnabled(true)
	os.Exit(m.Run())
}

func TestJobStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		j := genJob(rng, 4*time.Second)
		if err := spec.RoundTrip(j, ParseJob); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseJobRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"exp=bulk policy=dchannel seed=1 dur=2s fault=none", // bulk without cc
		"exp=outage cc=bbr policy=dchannel seed=1 dur=2s fault=none",
		"exp=warp policy=dchannel seed=1 dur=2s fault=none",
		"exp=outage policy=dchannel seed=1 fault=none", // no dur
		"exp=outage policy=dchannel seed=x dur=2s fault=none",
		"exp=outage policy=dchannel seed=1 dur=2s fault=bogus:ch=embb",
		"exp=outage exp=outage policy=dchannel seed=1 dur=2s fault=none",
		// Names are checked at parse time: a typo in a -repro string is a
		// usage error, not a "reproduced" finding with a flight dump.
		"exp=bulk cc=tahoe policy=dchannel seed=1 dur=2s fault=none",
		"exp=outage policy=teleport seed=1 dur=2s fault=none",
	} {
		if _, err := ParseJob(s); err == nil {
			t.Errorf("ParseJob(%q) accepted", s)
		}
	}
}

// TestCanonicalGolden pins Job.String() byte for byte against a corpus
// rendered by the hand-rolled parser this package had before
// internal/spec (testdata/canonical.txt, "input => String()"): it is
// the -repro format, so a counterexample saved from an old soak must
// still replay.
func TestCanonicalGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/canonical.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		in, want, _ := strings.Cut(line, " => ")
		j, err := ParseJob(in)
		if err != nil {
			t.Errorf("ParseJob(%q): %v", in, err)
			continue
		}
		if j.String() != want {
			t.Errorf("ParseJob(%q).String()\n got %s\nwant %s", in, j, want)
		}
		if err := spec.RoundTrip(j, ParseJob); err != nil {
			t.Errorf("%q: %v", in, err)
		}
	}
}

func TestGenSpecAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		sched := genSpec(rng, 4*time.Second)
		if err := sched.Validate(); err != nil {
			t.Fatalf("generated spec invalid: %v\n%s", err, sched)
		}
		if err := spec.RoundTrip(sched, fault.ParseSpec); err != nil {
			t.Fatal(err)
		}
	}
}

// skipWithoutInvariants skips soak tests in an -tags invariant_off
// build, where Soak correctly refuses to run.
func skipWithoutInvariants(t *testing.T) {
	t.Helper()
	if !invariant.Compiled {
		t.Skip("built with -tags invariant_off")
	}
}

func TestSoakRefusesDisabledInvariants(t *testing.T) {
	invariant.SetEnabled(false)
	defer invariant.SetEnabled(true)
	if _, _, err := Soak(Options{MetaSeed: 1, Jobs: 1}); err == nil {
		t.Fatal("Soak ran with invariants disabled")
	}
}

// TestSoakCatchesSeededBug is the end-to-end proof of the harness: it
// re-arms the pre-PR 5 duplicate-delivery bug behind the seeded-bug
// switch, soaks until the exactly-once invariant trips, and checks the
// finding shrinks to a replayable minimal counterexample.
func TestSoakCatchesSeededBug(t *testing.T) {
	skipWithoutInvariants(t)
	invariant.SetBug(invariant.BugDupDeliver, true)
	defer invariant.SetBug(invariant.BugDupDeliver, false)

	f, ran, err := Soak(Options{MetaSeed: 42, Jobs: 64, Workers: 4, Dur: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatalf("soak missed the seeded duplicate-delivery bug after %d trials", ran)
	}
	if f.Violation == nil || f.Violation.Layer != "transport" || f.Violation.Name != "exactly-once" {
		t.Fatalf("finding is not the exactly-once violation: %v", f)
	}

	// The minimal counterexample replays: parse its String form (the
	// shape a user would paste into -repro) and re-run it.
	min, perr := ParseJob(f.Minimal.String())
	if perr != nil {
		t.Fatalf("minimal counterexample does not re-parse: %v", perr)
	}
	rerr := Run(min)
	var v *invariant.Violation
	if !errors.As(rerr, &v) || v.Layer != "transport" || v.Name != "exactly-once" {
		t.Fatalf("minimal counterexample does not reproduce: %v", rerr)
	}

	// Shrinking must never grow the trial.
	if f.Minimal.Dur > f.Job.Dur || len(f.Minimal.Fault.Events) > len(f.Job.Fault.Events) {
		t.Fatalf("shrink grew the job:\n  original: %s\n  minimal:  %s", f.Job, f.Minimal)
	}
	if f.Minimal.Exp == ExpOutage && f.Minimal.Fault.Empty() {
		t.Fatalf("shrink emptied an outage job's schedule (default substitution would change the trial): %s", f.Minimal)
	}
	t.Logf("finding after %d trials:\n%s", ran, f)
}

// TestFindingShipsFlightDump is the acceptance check for the flight
// recorder: an induced invariant violation must come with a dump that
// carries the violating event itself plus the telemetry leading up to
// it, and the live progress meter must observe the soak without
// changing its finding.
func TestFindingShipsFlightDump(t *testing.T) {
	skipWithoutInvariants(t)
	invariant.SetBug(invariant.BugDupDeliver, true)
	defer invariant.SetBug(invariant.BugDupDeliver, false)

	m := telemetry.NewMeter()
	f, ran, err := Soak(Options{MetaSeed: 42, Jobs: 64, Workers: 4, Dur: 3 * time.Second, Meter: m})
	if err != nil || f == nil {
		t.Fatalf("finding=%v err=%v after %d trials", f, err, ran)
	}

	// The meter counted every finished trial against the soak's size
	// and timed each one; same finding as the meterless soak in
	// TestSoakCatchesSeededBug (same meta-seed).
	p := m.Progress()
	if p.Total != 64 || p.Done < ran || p.Done > p.Total {
		t.Fatalf("meter done=%d total=%d, ran=%d", p.Done, p.Total, ran)
	}
	if len(p.Sketches) != 1 || p.Sketches[0].Name != "trial_ms" || p.Sketches[0].N != uint64(p.Done) {
		t.Fatalf("trial sketches = %+v, want one trial_ms per finished trial", p.Sketches)
	}
	if f.Violation == nil || f.Violation.Name != "exactly-once" {
		t.Fatalf("finding = %v", f)
	}

	if f.Flight == nil {
		t.Fatal("finding has no flight recorder")
	}
	var buf bytes.Buffer
	if err := f.Flight.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"schema":"hvc-flight/v1"`) {
		t.Fatalf("dump missing header:\n%s", out)
	}
	// The breach itself is the dump's last line, in sequence with the
	// events that led to it.
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"name":"exactly-once"`) || !strings.Contains(last, `"layer":"transport"`) {
		t.Fatalf("dump's last line is not the violation:\n%s", last)
	}
	if !strings.Contains(last, "delivered") || !strings.Contains(last, "twice") {
		t.Fatalf("violation note lost its detail:\n%s", last)
	}
	if len(lines) < 3 {
		t.Fatalf("dump carries no context events before the breach:\n%s", out)
	}
	// The context is real run telemetry: transport/channel events from
	// the replay of the minimal counterexample.
	if !strings.Contains(out, `"layer":"channel"`) && !strings.Contains(out, `"name":"send"`) {
		t.Fatalf("dump context has no data-path events:\n%s", out)
	}
}

func TestSoakCleanOnHealthySimulator(t *testing.T) {
	skipWithoutInvariants(t)
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	f, ran, err := Soak(Options{MetaSeed: 7, Jobs: 24, Workers: 4, Dur: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("healthy simulator produced a finding after %d trials:\n%s", ran, f)
	}
	if ran != 24 {
		t.Fatalf("soak ran %d trials, want 24", ran)
	}
}

func TestSoakDeterministicAcrossWorkerCounts(t *testing.T) {
	skipWithoutInvariants(t)
	invariant.SetBug(invariant.BugDupDeliver, true)
	defer invariant.SetBug(invariant.BugDupDeliver, false)
	var minimals []string
	for _, workers := range []int{1, 4} {
		f, _, err := Soak(Options{MetaSeed: 42, Jobs: 64, Workers: workers, Dur: 3 * time.Second})
		if err != nil || f == nil {
			t.Fatalf("workers=%d: finding=%v err=%v", workers, f, err)
		}
		minimals = append(minimals, f.Job.String()+"\n"+f.Minimal.String())
	}
	if minimals[0] != minimals[1] {
		t.Fatalf("finding depends on worker count:\n  w=1: %s\n  w=4: %s", minimals[0], minimals[1])
	}
}
