package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"hvc/internal/core"
	"hvc/internal/pool"
	"hvc/internal/spec"
	"hvc/internal/telemetry"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// videoGrid is the workhorse test spec: video jobs cost milliseconds,
// so a 2×2×3-job grid keeps the suite fast while still exercising
// multi-axis expansion.
const videoGrid = "exp=video policy=embb-only,dchannel trace=lowband-driving,mmwave-driving seeds=1..3 dur=5s"

func mustParse(t *testing.T, s string) Spec {
	t.Helper()
	spec, err := ParseSpec(s)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", s, err)
	}
	return spec
}

func TestParseSpecCanonicalRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
	}{
		{"exp=bulk", "exp=bulk cc=cubic policy=dchannel trace=fixed seeds=1..1 dur=15s"},
		{"exp=bulk cc=bbr,cubic seeds=7", "exp=bulk cc=bbr,cubic policy=dchannel trace=fixed seeds=7..7 dur=15s"},
		{"exp=video dur=90s seeds=2..4", "exp=video policy=dchannel trace=lowband-driving seeds=2..4 dur=1m30s"},
		{"exp=web pages=3 loads=1", "exp=web policy=dchannel trace=lowband-stationary seeds=1..1 pages=3 loads=1"},
		{"exp=abr trace=lowband-walking", "exp=abr policy=dchannel trace=lowband-walking seeds=1..1 dur=1m0s"},
		{"seeds=-2..1 exp=video", "exp=video policy=dchannel trace=lowband-driving seeds=-2..1 dur=20s"},
		{"exp=outage", "exp=outage policy=embb-only,dchannel,redundant trace=fixed seeds=1..1 dur=8s " +
			"fault=outage:ch=embb,at=2s,dur=1s;outage:ch=embb,at=5s,dur=1s"},
		{"exp=outage dur=4s policy=redundant fault=burst:ch=urllc,at=1s,dur=2s,pgb=0.5",
			"exp=outage policy=redundant trace=fixed seeds=1..1 dur=4s " +
				"fault=burst:ch=urllc,at=1s,dur=2s,pgb=0.5,pbg=0.25,loss=1,lossgood=0"},
		{"exp=arena", "exp=arena policy=dchannel trace=fixed seeds=1..1 dur=15s flows=2 mix=cubic:1 join=0s rttspread=0s"},
		{"exp=arena flows=4 mix=cubic:2,bbr join=250ms rttspread=20ms dur=4s seeds=1..2",
			"exp=arena policy=dchannel trace=fixed seeds=1..2 dur=4s flows=4 mix=cubic:2,bbr:1 join=250ms rttspread=20ms"},
	}
	for _, c := range cases {
		sp := mustParse(t, c.in)
		if got := sp.String(); got != c.canonical {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.canonical)
			continue
		}
		if err := spec.RoundTrip(sp, ParseSpec); err != nil {
			t.Errorf("%q: %v", c.in, err)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"",                               // no exp
		"exp=quantum",                    // unknown experiment
		"exp=bulk exp=bulk",              // duplicate key
		"exp=bulk cc=cubic,cubic",        // duplicate value
		"exp=bulk cc=",                   // empty value
		"exp=bulk frob=1",                // unknown key
		"exp=bulk cc",                    // not key=value
		"exp=bulk seeds=5..1",            // inverted range
		"exp=bulk seeds=a..b",            // junk seeds
		"exp=bulk dur=fast",              // junk duration
		"exp=bulk dur=-5s",               // negative duration
		"exp=bulk pages=4",               // pages outside web
		"exp=web dur=5s",                 // dur on web
		"exp=video cc=cubic",             // cc outside bulk
		"exp=web policy=priority",        // policy web rejects
		"exp=bulk cc=tcp-tahoe",          // unknown cc
		"exp=bulk policy=random",         // unknown policy
		"exp=bulk trace=starlink",        // unknown trace
		"exp=bulk pages=0",               // non-positive int
		"exp=bulk seeds=1..900000000000", // range cap
		"exp=bulk fault=outage:ch=embb,at=0s,dur=1s",   // fault outside outage
		"exp=outage fault=meteor:ch=embb,at=0s,dur=1s", // unknown fault kind
		"exp=outage fault=outage:ch=leo,at=0s,dur=1s",  // channel the runner lacks
		"exp=outage trace=lowband-driving",             // outage is fixed-trace only
		"exp=outage pages=2",                           // pages outside web
		"exp=bulk flows=4",                             // arena knobs outside arena
		"exp=video mix=cubic",                          // arena knobs outside arena
		"exp=bulk join=1s",                             // arena knobs outside arena
		"exp=arena cc=cubic",                           // arena's CCA knob is mix, not cc
		"exp=arena flows=0",                            // non-positive flows
		"exp=arena flows=65",                           // over the arena flow cap
		"exp=arena mix=tcp-tahoe",                      // unknown cc in mix
		"exp=arena mix=cubic,cubic",                    // duplicate mix entry
		"exp=arena join=-1s",                           // negative duration
		"exp=arena flows=2 join=10s dur=5s",            // last join after dur
		"exp=arena pages=2",                            // pages outside web
		// Explicit zero is not "unset", and a key that does not apply is
		// rejected whatever its value (each was accepted before
		// internal/spec).
		"exp=bulk dur=0s",        // was silently 15s
		"exp=web dur=0s",         // dur on web, zero or not
		"exp=bulk join=0s",       // arena knob outside arena, zero or not
		"exp=video rttspread=0s", // arena knob outside arena, zero or not
		"exp=arena dur=0s",       // was silently 15s
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", s)
		}
	}
}

// TestParseSpecErrorsAreSweeps pins the error prefix: whatever layer
// rejects a sweep spec — the kernel, this package's cross-field rules,
// the arena validator behind exp=arena, or the fault grammar behind
// fault= — the message starts with "sweep:" (exp=arena dur=-3s and
// mix=cubic:0 used to surface as "arena: ...", a bad scenario as
// "fault: ...").
func TestParseSpecErrorsAreSweeps(t *testing.T) {
	for _, in := range []string{
		"exp=arena dur=-3s", "exp=arena mix=cubic:0", "exp=arena flows=65", "exp=arena mix=tcp-tahoe",
		"exp=web dur=5s", "exp=bulk fault=none", "exp=bulk seeds=a..b", "exp=bulk trace=starlink",
		"exp=outage fault=meteor:ch=embb,at=0s,dur=1s", "exp=outage fault=outage:ch=embb,zap=1",
	} {
		if _, err := ParseSpec(in); err == nil || !strings.HasPrefix(err.Error(), "sweep: ") {
			t.Errorf("ParseSpec(%q) = %v, want a sweep: error", in, err)
		}
	}
}

// TestCanonicalGolden pins String() and the job cache key byte for
// byte against corpora rendered by the hand-rolled parser this package
// had before internal/spec (testdata/canonical.txt, "input =>
// String()"; testdata/jobkeys.txt, "input => quoted key of the first
// cell at the first seed, build= line dropped"): the key is the
// .hvcsweep/ address, so an existing cache stays a hit only if neither
// moves.
func TestCanonicalGolden(t *testing.T) {
	lines := func(path string) []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	for _, line := range lines("testdata/canonical.txt") {
		in, want, _ := strings.Cut(line, " => ")
		sp, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got := sp.String(); got != want {
			t.Errorf("ParseSpec(%q).String()\n got %s\nwant %s", in, got, want)
		}
		if err := spec.RoundTrip(sp, ParseSpec); err != nil {
			t.Errorf("%q: %v", in, err)
		}
	}
	for _, line := range lines("testdata/jobkeys.txt") {
		in, want, _ := strings.Cut(line, " => ")
		sp := mustParse(t, in)
		key := job{spec: sp, cell: sp.cells()[0], seed: sp.SeedFirst}.key("")
		if got := strconv.Quote(strings.TrimSuffix(key, "build=\n")); got != want {
			t.Errorf("job key of %q\n got %s\nwant %s", in, got, want)
		}
	}
}

func TestRunMatrixBytesInvariantUnderWorkerCount(t *testing.T) {
	spec := mustParse(t, videoGrid)
	render := func(workers int) (jsonB, csvB []byte) {
		t.Helper()
		m, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := m.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	j1, c1 := render(1)
	for _, workers := range []int{2, 8} {
		jn, cn := render(workers)
		if !bytes.Equal(j1, jn) {
			t.Fatalf("JSON matrix differs between workers=1 and workers=%d", workers)
		}
		if !bytes.Equal(c1, cn) {
			t.Fatalf("CSV matrix differs between workers=1 and workers=%d", workers)
		}
	}
}

func TestRunCellOrderAndAggregation(t *testing.T) {
	spec := mustParse(t, videoGrid)
	m, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 2*2*3 {
		t.Fatalf("jobs = %d, want 12", m.Jobs)
	}
	wantCells := []struct{ policy, trace string }{
		{"embb-only", "lowband-driving"},
		{"embb-only", "mmwave-driving"},
		{"dchannel", "lowband-driving"},
		{"dchannel", "mmwave-driving"},
	}
	if len(m.Cells) != len(wantCells) {
		t.Fatalf("%d cells, want %d", len(m.Cells), len(wantCells))
	}
	for i, w := range wantCells {
		c := m.Cells[i]
		if c.Policy != w.policy || c.Trace != w.trace || c.Seeds != "1..3" || c.Exp != "video" {
			t.Fatalf("cell %d = %+v, want policy=%s trace=%s", i, c, w.policy, w.trace)
		}
		if len(c.Metrics) == 0 || c.Metrics[0].Name != "latency_p50_ms" {
			t.Fatalf("cell %d metrics %+v", i, c.Metrics)
		}
		for _, mt := range c.Metrics {
			if mt.N != 3 {
				t.Fatalf("cell %d metric %s aggregated %d seeds, want 3", i, mt.Name, mt.N)
			}
		}
	}

	// Spot-check one cell against direct serial runs through core: the
	// engine must aggregate exactly the per-seed values.
	var vals []float64
	for seed := int64(1); seed <= 3; seed++ {
		r, err := core.RunVideo(core.VideoConfig{
			Seed: seed, Duration: 5 * time.Second,
			Trace: "lowband-driving", Policy: core.PolicyEMBBOnly,
		})
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, r.Latency.Percentile(50))
	}
	want := core.Summarize(vals)
	if got := m.Cells[0].Metrics[0].Summary; got != want {
		t.Fatalf("cell aggregate %+v, want serial %+v", got, want)
	}
}

// TestRunOutageGrid runs the fault experiment end to end through the
// engine: the outage metrics come back in their fixed order, and the
// aggregate reproduces the acceptance result — replication stalls
// strictly less than the single-channel baseline under the blackout.
func TestRunOutageGrid(t *testing.T) {
	spec := mustParse(t, "exp=outage policy=embb-only,redundant seeds=1..2 dur=4s")
	m, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 2*2 {
		t.Fatalf("jobs = %d, want 4", m.Jobs)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(m.Cells))
	}
	wantMetrics := []string{"delivery_rate", "stall_ms", "delay_p50_ms", "delay_p99_ms"}
	stall := map[string]float64{}
	for _, c := range m.Cells {
		for i, mt := range c.Metrics {
			if mt.Name != wantMetrics[i] {
				t.Fatalf("cell %s metric %d = %s, want %s", c.Policy, i, mt.Name, wantMetrics[i])
			}
		}
		stall[c.Policy] = c.Metrics[1].Mean
	}
	if stall["redundant"] >= stall["embb-only"] {
		t.Fatalf("redundant stall %.1fms not below embb-only %.1fms",
			stall["redundant"], stall["embb-only"])
	}
}

// TestRunABRMetricsKeepMicroseconds checks a one-cell abr sweep reports
// RunABR's startup delay and rebuffer time to the microsecond, as
// -exp ablation-has does, not truncated to whole milliseconds.
func TestRunABRMetricsKeepMicroseconds(t *testing.T) {
	m, err := Run(mustParse(t, "exp=abr policy=dchannel trace=mmwave-driving seeds=1..1 dur=20s"), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.RunABR(core.ABRConfig{Seed: 1, Media: 20 * time.Second, Trace: "mmwave-driving", Policy: "dchannel"})
	if err != nil {
		t.Fatal(err)
	}
	startup := float64(r.StartupDelay.Microseconds()) / 1000
	if startup == float64(r.StartupDelay.Milliseconds()) {
		t.Fatalf("startup %v is a whole number of milliseconds; the check needs a run whose startup is not", r.StartupDelay)
	}
	for i, want := range []CellMetric{
		{Name: "startup_ms", Summary: core.Summary{Mean: startup}},
		{Name: "rebuffer_ms", Summary: core.Summary{Mean: float64(r.RebufferTime.Microseconds()) / 1000}},
	} {
		if got := m.Cells[0].Metrics[i]; got.Name != want.Name || got.Mean != want.Mean {
			t.Errorf("metric %d = %s %v, want %s %v (RunABR's)", i, got.Name, got.Mean, want.Name, want.Mean)
		}
	}
}

// TestRunArenaGridWorkerInvariance is the arena acceptance gate at the
// sweep layer: a four-flow mixed-CCA contention grid produces a
// byte-identical matrix on one worker and four, and its fixed metric
// set leads with the fairness numbers.
func TestRunArenaGridWorkerInvariance(t *testing.T) {
	spec := mustParse(t, "exp=arena flows=4 mix=cubic,copa,bbr,reno join=250ms rttspread=20ms dur=4s seeds=1..2")
	render := func(workers int) []byte {
		t.Helper()
		m, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := m.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	b1 := render(1)
	if !bytes.Equal(b1, render(4)) {
		t.Fatal("arena matrix differs between workers=1 and workers=4")
	}

	m, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 2 || len(m.Cells) != 1 {
		t.Fatalf("jobs=%d cells=%d, want 2 jobs in 1 cell", m.Jobs, len(m.Cells))
	}
	wantMetrics := []string{"jain", "converged", "convergence_s",
		"goodput_total_mbps", "goodput_min_mbps", "goodput_max_mbps"}
	c := m.Cells[0]
	if len(c.Metrics) != len(wantMetrics) {
		t.Fatalf("arena cell metrics %+v, want %v", c.Metrics, wantMetrics)
	}
	for i, mt := range c.Metrics {
		if mt.Name != wantMetrics[i] {
			t.Fatalf("metric %d = %s, want %s", i, mt.Name, wantMetrics[i])
		}
	}
	jain := c.Metrics[0].Summary
	if jain.Mean <= 0 || jain.Mean > 1 {
		t.Fatalf("jain mean %v out of (0,1]", jain.Mean)
	}
	if tot := c.Metrics[3].Summary; tot.Mean <= 0 {
		t.Fatalf("arena moved no bytes: %+v", tot)
	}
}

func TestRunServesSecondSweepFromCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), ".hvcsweep")
	spec := mustParse(t, "exp=video policy=dchannel trace=lowband-driving seeds=1..2 dur=5s")

	meter1 := telemetry.NewMeter()
	m1, err := Run(spec, Options{Workers: 4, CacheDir: dir, Meter: meter1})
	if err != nil {
		t.Fatal(err)
	}
	if p := meter1.Progress(); p.Done != 2 || p.Total != 2 || p.Cached != 0 {
		t.Fatalf("first sweep: done=%d total=%d cached=%d, want 2/2/0", p.Done, p.Total, p.Cached)
	}

	meter2 := telemetry.NewMeter()
	m2, err := Run(spec, Options{Workers: 4, CacheDir: dir, Meter: meter2})
	if err != nil {
		t.Fatal(err)
	}
	if p := meter2.Progress(); p.Done != 2 || p.Total != 2 || p.Cached != 2 {
		t.Fatalf("second sweep: done=%d total=%d cached=%d, want 2/2/2 (all hits)", p.Done, p.Total, p.Cached)
	}

	var b1, b2 bytes.Buffer
	if err := m1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("cached sweep produced different matrix bytes")
	}
}

// TestRunFeedsSketchGroupWithoutPerturbingMatrix checks the live
// quantile surface: every job's metrics land in the meter's sketches
// (one observation per job per metric), and attaching a meter leaves
// the matrix byte-identical to a sweep without one.
func TestRunFeedsSketchGroupWithoutPerturbingMatrix(t *testing.T) {
	spec := mustParse(t, "exp=video policy=embb-only,dchannel trace=lowband-driving seeds=1..3 dur=5s")

	plain, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	meter := telemetry.NewMeter()
	sketched, err := Run(spec, Options{Workers: 4, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}

	var b1, b2 bytes.Buffer
	if err := plain.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := sketched.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("attaching a meter changed the matrix bytes")
	}

	sums := meter.Progress().Sketches
	if len(sums) == 0 {
		t.Fatal("meter sketches saw no observations")
	}
	byName := map[string]uint64{}
	for _, s := range sums {
		byName[s.Name] = s.N
	}
	// 2 cells × 3 seeds = 6 jobs; every job reports every video metric.
	for _, name := range []string{"latency_p50_ms", "latency_p99_ms"} {
		if byName[name] != 6 {
			t.Fatalf("sketch %q saw %d observations, want 6 (snapshot: %+v)", name, byName[name], sums)
		}
	}
}

func TestRunWidensCacheOnlyPerCell(t *testing.T) {
	// Iterating on one axis value must reuse every cell already
	// computed: adding a policy re-runs only the new column.
	dir := filepath.Join(t.TempDir(), ".hvcsweep")
	base := mustParse(t, "exp=video policy=dchannel trace=lowband-driving seeds=1..2 dur=5s")
	if _, err := Run(base, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	wider := mustParse(t, "exp=video policy=dchannel,embb-only trace=lowband-driving seeds=1..2 dur=5s")
	meter := telemetry.NewMeter()
	if _, err := Run(wider, Options{CacheDir: dir, Meter: meter}); err != nil {
		t.Fatal(err)
	}
	if p := meter.Progress(); p.Done != 4 || p.Cached != 2 {
		t.Fatalf("widened sweep: %d jobs with %d reused, want 4 with 2 (only the new column runs)", p.Done, p.Cached)
	}
}

func TestRunCorruptCacheEntryReRuns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), ".hvcsweep")
	spec := mustParse(t, "exp=video policy=dchannel trace=lowband-driving seeds=1..1 dur=5s")
	if _, err := Run(spec, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "v1", "*", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files %v, %v", files, err)
	}
	if err := writeFile(files[0], "{not json"); err != nil {
		t.Fatal(err)
	}
	meter := telemetry.NewMeter()
	if _, err := Run(spec, Options{CacheDir: dir, Meter: meter}); err != nil {
		t.Fatal(err)
	}
	if p := meter.Progress(); p.Done != 1 || p.Cached != 0 {
		t.Fatalf("corrupt entry was not re-run (done=%d cached=%d)", p.Done, p.Cached)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	if _, err := Run(Spec{Exp: ExpVideo, Dur: -time.Second, SeedCount: 1}, Options{}); err == nil {
		t.Fatal("invalid hand-built spec accepted")
	}
	if _, err := Run(Spec{}, Options{}); err == nil {
		t.Fatal("zero spec accepted")
	}
}

func TestRunErrorNamesCellAndSeed(t *testing.T) {
	// Inject a failure at one seed, as an error and as a panic: the
	// engine must report the first failing job in grid order, naming
	// its cell and seed, regardless of worker count. A panic arrives as
	// a *pool.Panic in the chain.
	defer func() { testRunJob = nil }()
	spec := mustParse(t, "exp=video policy=embb-only,dchannel trace=lowband-driving seeds=1..3 dur=5s")
	for _, panics := range []bool{false, true} {
		testRunJob = func(j job) ([]MetricValue, error) {
			if j.seed >= 2 && j.cell.Policy == "dchannel" {
				if panics {
					panic("simulated trace corruption")
				}
				return nil, fmt.Errorf("simulated trace corruption")
			}
			return []MetricValue{{"x", float64(j.seed)}}, nil
		}
		for _, workers := range []int{1, 4} {
			_, err := Run(spec, Options{Workers: workers})
			if err == nil {
				t.Fatalf("panics=%v workers=%d: job failure not propagated", panics, workers)
			}
			for _, want := range []string{"policy=dchannel", "trace=lowband-driving", "seed 2", "simulated trace corruption"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("panics=%v workers=%d: error %q missing %q", panics, workers, err, want)
				}
			}
			var pe *pool.Panic
			if errors.As(err, &pe) != panics {
				t.Fatalf("panics=%v workers=%d: *pool.Panic in the chain is %v: %v", panics, workers, !panics, err)
			}
		}
	}
}

// TestJobKeyCarriesBuildAndSeed pins the key's two parts: the cell
// line at its seed, and build= with the SHA-256 of the running binary
// (here the test binary), hashed independently of buildHash.
func TestJobKeyCarriesBuildAndSeed(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	want := hex.EncodeToString(sum[:])
	if got, err := buildHash(); err != nil || got != want {
		t.Fatalf("buildHash() = %q, %v; want the test binary's SHA-256 %q", got, err, want)
	}

	spec := mustParse(t, "exp=bulk cc=bbr seeds=3 dur=2s")
	j := job{spec: spec, cell: cellKey{CC: "bbr", Policy: "dchannel", Trace: "fixed"}, seed: 3}
	c, err := openCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := j.key(c.build)
	if wantKey := "exp=bulk cc=bbr policy=dchannel trace=fixed seed=3 dur=2s\nbuild=" + want + "\n"; key != wantKey {
		t.Errorf("job key\n got %q\nwant %q", key, wantKey)
	}
	j2 := j
	j2.seed = 4
	if c.path(key) == c.path(j2.key(c.build)) {
		t.Fatal("different seeds share a cache address")
	}
}

// TestRunKeysCacheByBuild runs one grid on one cache under two
// substituted build identities: each build hits on its own entries and
// misses on every other build's, and the cache holds one build at a
// time, so a build's run leaves only its own entries behind — none of
// the other build's, nor any of the older flat layout's.
func TestRunKeysCacheByBuild(t *testing.T) {
	saved := buildHash
	t.Cleanup(func() { buildHash, testRunJob = saved, nil })
	testRunJob = func(j job) ([]MetricValue, error) { return []MetricValue{{"x", float64(j.seed)}}, nil }
	dir := t.TempDir()
	flat := filepath.Join(dir, "v1", strings.Repeat("0", 64)+".json")
	if err := os.MkdirAll(filepath.Dir(flat), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(flat, "{}"); err != nil {
		t.Fatal(err)
	}
	spec := mustParse(t, "exp=video policy=dchannel trace=lowband-driving seeds=1..2 dur=5s")
	run := func(build string) telemetry.Progress {
		t.Helper()
		buildHash = func() (string, error) { return build, nil }
		meter := telemetry.NewMeter()
		if _, err := Run(spec, Options{CacheDir: dir, Meter: meter}); err != nil {
			t.Fatal(err)
		}
		return meter.Progress()
	}
	for i, step := range []struct {
		build  string
		cached int
	}{{"build-a", 0}, {"build-a", 2}, {"build-b", 0}, {"build-b", 2}, {"build-a", 0}, {"build-b", 0}} {
		if p := run(step.build); p.Done != 2 || p.Cached != step.cached {
			t.Errorf("run %d (%s): done=%d cached=%d, want 2/%d", i, step.build, p.Done, p.Cached, step.cached)
		}
	}
	var files []string
	err := filepath.WalkDir(filepath.Join(dir, "v1"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil || len(files) != 2 || filepath.Base(filepath.Dir(files[0])) != "build-b" || filepath.Base(filepath.Dir(files[1])) != "build-b" {
		t.Fatalf("cache holds %v (%v), want build-b's 2 entries only", files, err)
	}
}

// TestRunFailsOnUnreadableBuild checks a Run with a cache directory
// stops before any job when the build cannot be hashed, and points to
// running without the cache; without one it never reads the build.
func TestRunFailsOnUnreadableBuild(t *testing.T) {
	saved := buildHash
	t.Cleanup(func() { buildHash, testRunJob = saved, nil })
	buildHash = func() (string, error) { return "", errors.New("executable unreadable") }
	ran := 0
	testRunJob = func(j job) ([]MetricValue, error) { ran++; return []MetricValue{{"x", 1}}, nil }
	dir := filepath.Join(t.TempDir(), "cache")
	spec := mustParse(t, "exp=video policy=dchannel seeds=1..2 dur=5s")
	_, err := Run(spec, Options{Workers: 1, CacheDir: dir})
	if err == nil || !strings.Contains(err.Error(), "executable unreadable") || !strings.Contains(err.Error(), "-no-cache") {
		t.Fatalf("Run error %v; want the hash failure and a pointer to -no-cache", err)
	}
	if ran != 0 {
		t.Fatalf("%d jobs ran before the cache failed", ran)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("cache directory created: %v", err)
	}
	if _, err := Run(spec, Options{Workers: 1}); err != nil || ran != 2 {
		t.Fatalf("uncached Run: %v after %d jobs", err, ran)
	}
}

// TestJobKeyFoldsArenaMix pins the arena knobs into the cache key: it
// carries flows/mix/join/rttspread, and jobs differing only in a knob
// never share a key.
func TestJobKeyFoldsArenaMix(t *testing.T) {
	spec := mustParse(t, "exp=arena flows=4 mix=cubic,bbr join=250ms rttspread=20ms dur=4s seeds=1")
	j := job{spec: spec, cell: cellKey{Policy: "dchannel", Trace: "fixed"}, seed: 1}
	key := j.key("")
	for _, want := range []string{"flows=4", "mix=cubic:1,bbr:1", "join=250ms", "rttspread=20ms"} {
		if !strings.Contains(key, want) {
			t.Errorf("arena job key missing %q:\n%s", want, key)
		}
	}
	for _, alt := range []string{
		"exp=arena flows=4 mix=cubic,reno join=250ms rttspread=20ms dur=4s seeds=1",
		"exp=arena flows=3 mix=cubic,bbr join=250ms rttspread=20ms dur=4s seeds=1",
		"exp=arena flows=4 mix=cubic,bbr join=300ms rttspread=20ms dur=4s seeds=1",
		"exp=arena flows=4 mix=cubic,bbr join=250ms rttspread=10ms dur=4s seeds=1",
	} {
		j2 := j
		j2.spec = mustParse(t, alt)
		if key == j2.key("") {
			t.Errorf("arena jobs share a cache key despite differing specs:\n%s\nvs\n%s", key, alt)
		}
	}
}

// TestJobKeyFoldsFaultScenario pins the fault axis into the cache
// key: outage jobs that differ only in scenario must not share a
// cached result.
func TestJobKeyFoldsFaultScenario(t *testing.T) {
	spec := mustParse(t, "exp=outage policy=redundant seeds=1 dur=4s")
	j := job{spec: spec, cell: cellKey{Policy: "redundant", Trace: "fixed"}, seed: 1}
	if !strings.Contains(j.key(""), "fault="+spec.Fault) {
		t.Fatalf("job key missing fault scenario:\n%s", j.key(""))
	}
	j2 := j
	j2.spec.Fault = "outage:ch=urllc,at=1s,dur=500ms"
	if j.key("") == j2.key("") {
		t.Fatal("different fault scenarios share a cache key")
	}
}

func TestCacheLoadQuarantinesBadEntries(t *testing.T) {
	c := cache{dir: t.TempDir(), build: "b"}
	spec := mustParse(t, "exp=video policy=dchannel trace=lowband-driving seeds=1..1 dur=5s")
	j := job{spec: spec, cell: cellKey{Policy: "dchannel", Trace: "lowband-driving"}, seed: 1}
	want := []MetricValue{{Name: "latency_p50_ms", Value: 12.5}}

	// Round trip: a stored entry loads back verbatim.
	if err := c.store(j, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.load(j)
	if !ok || len(got) != 1 || got[0] != want[0] {
		t.Fatalf("load after store = %v, %v", got, ok)
	}

	path := c.path(j.key(c.build))
	exists := func() bool { _, err := os.Stat(path); return err == nil }

	// Corrupt JSON: miss, and the file is deleted so the next sweep
	// does not trip over it again.
	if err := writeFile(path, "{torn write"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.load(j); ok {
		t.Fatal("corrupt entry reported as a hit")
	}
	if exists() {
		t.Fatal("corrupt entry not deleted")
	}

	// Key mismatch under the right hash: an entry lying about its
	// identity is deleted too.
	other := j
	other.seed = 2
	entry, err := json.Marshal(cacheEntry{Key: other.key(c.build), Metrics: want, Sum: metricsSum(want)})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, string(entry)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.load(j); ok {
		t.Fatal("key-mismatched entry reported as a hit")
	}
	if exists() {
		t.Fatal("key-mismatched entry not deleted")
	}

	// Plain absence stays a quiet miss.
	if _, ok := c.load(j); ok {
		t.Fatal("absent entry reported as a hit")
	}

	// The quarantine is per-entry: storing again restores the hit.
	if err := c.store(j, want); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.load(j); !ok {
		t.Fatal("re-stored entry missed")
	}
}

// A bit flipped inside a stored metric value can leave the entry valid
// JSON with the right key and a different number. The checksum turns
// that into a miss, and the entry is deleted like any corrupt one; so
// is an entry with no checksum at all.
func TestCacheLoadRejectsFlippedMetric(t *testing.T) {
	c := cache{dir: t.TempDir(), build: "b"}
	spec := mustParse(t, "exp=video policy=dchannel trace=lowband-driving seeds=1..1 dur=5s")
	j := job{spec: spec, cell: cellKey{Policy: "dchannel", Trace: "lowband-driving"}, seed: 1}
	want := []MetricValue{{Name: "latency_p50_ms", Value: 12.5}, {Name: "ssim_mean", Value: 0.93}}
	path := c.path(j.key(c.build))
	if err := c.store(j, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("12.5"))
	if at < 0 {
		t.Fatalf("stored entry does not spell the value 12.5:\n%s", data)
	}
	flipped := bytes.Clone(data)
	flipped[at+1] ^= 1 // '2' -> '3': 13.5, still a number
	var e cacheEntry
	if err := json.Unmarshal(flipped, &e); err != nil || e.Key != j.key(c.build) || e.Metrics[0].Value != 13.5 {
		t.Fatalf("the flip should leave a parseable entry for the same key: %v, %+v", err, e.Metrics)
	}
	for name, content := range map[string][]byte{
		"flipped value": flipped,
		"no checksum":   bytes.Replace(data, []byte(`"sum"`), []byte(`"was"`), 1),
	} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.load(j); ok {
			t.Errorf("%s: reported as a hit: %v", name, got)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s: entry not deleted", name)
		}
	}
}
