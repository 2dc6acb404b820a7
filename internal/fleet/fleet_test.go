package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"hvc/internal/pool"
	"hvc/internal/sketch"
	"hvc/internal/telemetry"
)

// render runs the fleet and returns the two user-visible byte surfaces
// — the stdout table and the JSON report — which the determinism
// matrix compares across execution shapes.
func render(t *testing.T, spec Spec, opt Options) (table, report []byte) {
	t.Helper()
	res, err := Run(spec, opt)
	if err != nil {
		t.Fatalf("Run(%s, %+v): %v", spec, opt, err)
	}
	var tb, rb bytes.Buffer
	if err := res.WriteTable(&tb); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if err := res.WriteJSON(&rb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return tb.Bytes(), rb.Bytes()
}

// TestFleetDeterminismMatrix is the package's headline contract, the
// fleet extension of the cross-package determinism matrix: for every
// spec (two fleet sizes x two seeds), the table and report bytes are
// identical whether the fleet runs on one worker, many workers with a
// different shard grain, or with live progress sampling attached.
func TestFleetDeterminismMatrix(t *testing.T) {
	for _, tc := range []string{
		"ues=6 seed=1 dur=200ms stagger=1s",
		"ues=6 seed=7 dur=200ms stagger=1s",
		"ues=11 seed=1 mix=bulk:2,web:1 policy=dchannel,embb-only dur=200ms stagger=2s",
		"ues=11 seed=7 mix=bulk:2,web:1 policy=dchannel,embb-only dur=200ms stagger=2s",
	} {
		spec, err := ParseSpec(tc)
		if err != nil {
			t.Fatal(err)
		}
		baseTable, baseReport := render(t, spec, Options{Workers: 1})
		variants := []Options{
			{Workers: 4, Shard: 3},
			{Workers: 2, Shard: 1, Meter: telemetry.NewMeter()},
		}
		for _, opt := range variants {
			table, report := render(t, spec, opt)
			if !bytes.Equal(table, baseTable) {
				t.Errorf("%q: table differs between workers=1 and %+v:\n%s\nvs\n%s", tc, opt, baseTable, table)
			}
			if !bytes.Equal(report, baseReport) {
				t.Errorf("%q: report differs between workers=1 and %+v", tc, opt)
			}
		}
	}
}

// TestFleetArenaSessions runs a real (tiny) arena-mixed fleet: every
// arena UE hosts a two-flow in-session contention and contributes one
// Jain observation plus a goodput per flow, and the aggregate stays
// byte-identical across worker shapes like every other app.
func TestFleetArenaSessions(t *testing.T) {
	spec, err := ParseSpec("ues=3 mix=arena:1 cc=cubic dur=1s stagger=1s")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, Options{Workers: 2, Shard: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]uint64{}
	for _, s := range res.Group.Snapshot() {
		byName[s.Name] = s.N
	}
	if byName["arena/jain"] != 3 {
		t.Fatalf("arena/jain saw %d observations, want one per UE (3): %+v", byName["arena/jain"], byName)
	}
	if byName["arena/flow_goodput_mbps"] != 6 {
		t.Fatalf("arena/flow_goodput_mbps saw %d observations, want one per flow (6): %+v",
			byName["arena/flow_goodput_mbps"], byName)
	}

	baseTable, baseReport := render(t, spec, Options{Workers: 1})
	table, report := render(t, spec, Options{Workers: 4, Shard: 2})
	if !bytes.Equal(table, baseTable) || !bytes.Equal(report, baseReport) {
		t.Fatal("arena fleet output differs across worker shapes")
	}
}

// stubUEs installs a cheap session stub and returns a restore func.
// The stub observes one value per UE so aggregation paths still
// exercise, without paying for real simulations.
func stubUEs(t *testing.T) {
	t.Helper()
	if testRunUE != nil {
		t.Fatal("testRunUE already installed")
	}
	testRunUE = func(p Profile, g *sketch.Group) error {
		g.Observe("stub/value", float64(p.UE%97)+0.5)
		return nil
	}
	t.Cleanup(func() { testRunUE = nil })
}

// TestFleetFlatMemory pins the streaming-aggregation promise:
// allocations scale with the shard count, not the UE count. Two fleets
// sized 4x apart but sharded to the same number of pool jobs must
// allocate within noise of each other — any per-UE result buffer
// would show up as an ~4x blowup.
func TestFleetFlatMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	stubUEs(t)
	measure := func(ues, shard int) uint64 {
		spec := Spec{UEs: ues, Seed: 1}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(spec, Options{Workers: 1, Shard: shard}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	measure(2000, 125) // warm up lazy initialization
	small := measure(2000, 125)
	big := measure(8000, 500) // same 16 shards, 4x the UEs
	if big > 2*small {
		t.Fatalf("4x the UEs at equal shard count allocated %d vs %d (>2x): aggregation is not flat in the fleet size", big, small)
	}
}

// TestFleetAggregation checks the merged totals through the stub: one
// observation per UE, fleet-wide count equals the fleet size, and the
// live Options.Meter sketches converge to exactly the result group.
func TestFleetAggregation(t *testing.T) {
	stubUEs(t)
	live := telemetry.NewMeter()
	spec := Spec{UEs: 500, Seed: 3}
	res, err := Run(spec, Options{Workers: 4, Shard: 7, Meter: live})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Group.Snapshot()
	if len(snap) != 1 || snap[0].Name != "stub/value" {
		t.Fatalf("unexpected metrics: %+v", snap)
	}
	if snap[0].N != 500 {
		t.Fatalf("aggregate holds %d observations, want 500", snap[0].N)
	}
	if got := live.Progress().Sketches; !reflect.DeepEqual(got, snap) {
		t.Fatalf("live meter sketches %+v diverged from the result aggregate %+v", got, snap)
	}
}

// TestFleetProgress checks the meter counts exact UEs: 100 UEs in
// shards of 7 leave a short last shard of 2, and however the shards
// finish the count never runs ahead of the sessions simulated and ends
// at exactly the fleet size.
func TestFleetProgress(t *testing.T) {
	if testRunUE != nil {
		t.Fatal("testRunUE already installed")
	}
	t.Cleanup(func() { testRunUE = nil })
	for _, workers := range []int{1, 4} {
		m := telemetry.NewMeter()
		var ran atomic.Int64
		testRunUE = func(p Profile, g *sketch.Group) error {
			if done := m.Progress().Done; int64(done) > ran.Load() {
				t.Errorf("workers=%d: meter reports %d UEs done, only %d simulated", workers, done, ran.Load())
			}
			ran.Add(1)
			return nil
		}
		if _, err := Run(Spec{UEs: 100, Seed: 1}, Options{Workers: workers, Shard: 7, Meter: m}); err != nil {
			t.Fatal(err)
		}
		if p := m.Progress(); p.Done != 100 || p.Total != 100 || p.Cached != 0 {
			t.Fatalf("workers=%d: meter done=%d total=%d cached=%d, want 100/100/0", workers, p.Done, p.Total, p.Cached)
		}
	}
}

// TestFleetErrorReporting checks a failing session surfaces as the
// lowest failing UE with its identity attached, matching the pool's
// lowest-index error contract.
func TestFleetErrorReporting(t *testing.T) {
	if testRunUE != nil {
		t.Fatal("testRunUE already installed")
	}
	testRunUE = func(p Profile, g *sketch.Group) error {
		if p.UE >= 40 {
			return fmt.Errorf("session exploded")
		}
		return nil
	}
	t.Cleanup(func() { testRunUE = nil })
	spec := Spec{UEs: 100, Seed: 1}
	_, err := Run(spec, Options{Workers: 4, Shard: 3})
	if err == nil {
		t.Fatal("Run succeeded despite failing sessions")
	}
	if !strings.Contains(err.Error(), "ue 40 ") || !strings.Contains(err.Error(), "session exploded") {
		t.Fatalf("error %q does not name the lowest failing UE", err)
	}
}

// TestFleetPanicNamesUE checks a panicking session surfaces like a
// failing one, naming its UE, app and seed rather than only the shard,
// and keeps the panic's value and stack.
func TestFleetPanicNamesUE(t *testing.T) {
	if testRunUE != nil {
		t.Fatal("testRunUE already installed")
	}
	var want string
	testRunUE = func(p Profile, g *sketch.Group) error {
		if p.UE == 40 {
			want = fmt.Sprintf("ue 40 (%s seed=%d): panic: session exploded", p.App, p.Seed)
			panic("session exploded")
		}
		return nil
	}
	t.Cleanup(func() { testRunUE = nil })
	_, err := Run(Spec{UEs: 100, Seed: 1}, Options{Workers: 4, Shard: 3})
	if want == "" || err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v does not contain %q", err, want)
	}
	var pe *pool.Panic
	if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "runUE") {
		t.Fatalf("error %v lost the panic's stack", err)
	}
}

// TestFleetReportShape decodes the JSON report and checks the wire
// contract: schema tag, canonical spec string, app counts that
// partition the fleet, and a sketch section.
func TestFleetReportShape(t *testing.T) {
	spec, err := ParseSpec("ues=6 seed=2 dur=200ms stagger=1s")
	if err != nil {
		t.Fatal(err)
	}
	_, report := render(t, spec, Options{Workers: 2})
	var rep struct {
		Schema   string         `json:"schema"`
		Spec     string         `json:"spec"`
		UEs      int            `json:"ues"`
		Apps     map[string]int `json:"apps"`
		Sketches []struct {
			Name string `json:"name"`
			N    uint64 `json:"n"`
		} `json:"sketches"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.Spec != spec.String() {
		t.Fatalf("report spec %q, want %q", rep.Spec, spec.String())
	}
	if rep.UEs != 6 {
		t.Fatalf("report ues %d, want 6", rep.UEs)
	}
	sum := 0
	for _, n := range rep.Apps {
		sum += n
	}
	if sum != rep.UEs {
		t.Fatalf("app counts %v sum to %d, want %d", rep.Apps, sum, rep.UEs)
	}
	if len(rep.Sketches) == 0 {
		t.Fatal("report has no sketches")
	}
	seen := map[string]bool{}
	for _, s := range rep.Sketches {
		seen[s.Name] = true
		if s.N == 0 {
			t.Errorf("empty sketch %q serialized into the report", s.Name)
		}
	}
	if !seen["fleet/start_offset_ms"] {
		t.Errorf("report sketches %v missing fleet/start_offset_ms", rep.Sketches)
	}
}

// TestFleetRejectsInvalidSpec checks Run validates rather than
// trusting a hand-built spec.
func TestFleetRejectsInvalidSpec(t *testing.T) {
	if _, err := Run(Spec{UEs: -1}, Options{}); err == nil {
		t.Fatal("Run accepted a negative fleet size")
	}
	if _, err := Run(Spec{UEs: 1, Fault: "garbage("}, Options{}); err == nil {
		t.Fatal("Run accepted an unparseable fault")
	}
}
