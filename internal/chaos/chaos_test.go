package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hvc/internal/fault"
	"hvc/internal/invariant"
	"hvc/internal/spec"
	"hvc/internal/sweep"
	"hvc/internal/telemetry"
)

func TestMain(m *testing.M) {
	invariant.SetEnabled(true)
	os.Exit(m.Run())
}

// TestTrialLineRoundTrip holds every generated trial to the sweep
// cell grammar: its line parses, as one cell at one seed, back to the
// trial itself, and the trial is canonical.
func TestTrialLineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if err := lineRoundTrip(genJob(rng, 4*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
}

// lineRoundTrip checks that trial is the one run its line names.
func lineRoundTrip(trial sweep.Spec) error {
	back, err := sweep.ParseCell(trial.Line())
	if err != nil {
		return fmt.Errorf("trial line %q rejected: %v", trial.Line(), err)
	}
	if !reflect.DeepEqual(back, trial) {
		return fmt.Errorf("trial line %q parses to another run:\n in: %+v\nout: %+v", trial.Line(), trial, back)
	}
	return spec.RoundTrip(trial, sweep.ParseSpec)
}

// TestCanonicalGolden replays the counterexamples saved from older
// soaks, which the canonical corpus keeps as the lines that spell one
// seed seed=N: each is still a -repro line (one cell at one seed), and
// it and every shrink candidate of it round-trip through that line, so
// shrinking a saved counterexample prints only lines that replay
// exactly.
func TestCanonicalGolden(t *testing.T) {
	data, err := os.ReadFile("../sweep/testdata/canonical.txt")
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		in, _, _ := strings.Cut(line, " => ")
		if !strings.Contains(" "+strings.Join(strings.Fields(in), " "), " seed=") {
			continue // a sweep spec, not a saved counterexample
		}
		saved++
		trial, err := sweep.ParseCell(in)
		if err != nil {
			t.Errorf("saved counterexample %q no longer replays: %v", in, err)
			continue
		}
		for _, c := range append([]sweep.Spec{trial}, candidates(trial)...) {
			if err := lineRoundTrip(c); err != nil {
				t.Errorf("%q: %v", in, err)
			}
		}
	}
	if saved == 0 {
		t.Fatal("canonical corpus holds no saved counterexample")
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
// re-arms the historical duplicate-delivery bug behind the seeded-bug
// switch, soaks until the exactly-once invariant trips, and checks the
// finding shrinks to a pinned, replayable minimal counterexample line.
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

	const want = "exp=outage policy=embb-only trace=fixed seed=608747136543856411 dur=750ms reliable=true " +
		"fault=outage:ch=embb,at=99ms,dur=376ms"
	if got := f.Minimal.Line(); got != want {
		t.Fatalf("minimal counterexample\n got %s\nwant %s", got, want)
	}

	// The minimal counterexample replays: parse its line (the shape a
	// user would paste into -repro) and re-run it.
	min, perr := sweep.ParseCell(f.Minimal.Line())
	if perr != nil {
		t.Fatalf("minimal counterexample does not re-parse: %v", perr)
	}
	rerr := Run(min)
	var v *invariant.Violation
	if !errors.As(rerr, &v) || v.Layer != "transport" || v.Name != "exactly-once" {
		t.Fatalf("minimal counterexample does not reproduce: %v", rerr)
	}

	// Shrinking must never grow the trial.
	clauses := func(s sweep.Spec) int { return strings.Count(s.Fault, ":ch=") }
	if f.Minimal.Dur > f.Trial.Dur || clauses(f.Minimal) > clauses(f.Trial) {
		t.Fatalf("shrink grew the trial:\n  original: %s\n  minimal:  %s", f.Trial.Line(), f.Minimal.Line())
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
		minimals = append(minimals, f.Trial.Line()+"\n"+f.Minimal.Line())
	}
	if minimals[0] != minimals[1] {
		t.Fatalf("finding depends on worker count:\n  w=1: %s\n  w=4: %s", minimals[0], minimals[1])
	}
}

// TestShrinkKeepsLastOutageClause pins the one rule the shrinker adds
// to "smaller": an outage trial never loses its last fault clause (its
// runner would substitute the default schedule, a different trial),
// while a bulk trial may shed its faults altogether.
func TestShrinkKeepsLastOutageClause(t *testing.T) {
	const fault = " seed=1 dur=2s fault=outage:ch=embb,at=1s,dur=500ms"
	for _, tc := range []struct {
		line      string
		faultless bool
	}{
		{"exp=outage policy=dchannel" + fault, false},
		{"exp=bulk cc=cubic" + fault, true},
	} {
		trial, err := sweep.ParseCell(tc.line)
		if err != nil {
			t.Fatal(err)
		}
		faultless := false
		for _, c := range candidates(trial) {
			if err := lineRoundTrip(c); err != nil {
				t.Errorf("%s: candidate %v", tc.line, err)
			}
			// Dropping an outage trial's last clause would leave the
			// default schedule's two.
			switch strings.Count(c.Fault, ":ch=") {
			case 0:
				faultless = true
			case 1:
			default:
				t.Errorf("%s: candidate %s gained clauses", tc.line, c.Line())
			}
		}
		if faultless != tc.faultless {
			t.Errorf("%s: a candidate without faults: %v, want %v", tc.line, faultless, tc.faultless)
		}
	}
}
