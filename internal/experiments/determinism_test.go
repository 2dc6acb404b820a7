package experiments

import (
	"bytes"
	"testing"
	"time"

	"hvc/internal/telemetry"
)

// tinyScale keeps the full 16-experiment matrix affordable: each bulk
// simulation runs for one simulated second, video (and the outage
// frame stream) for four (enough for the codec's frame cadence to
// produce output), and the web corpus shrinks to two pages loaded
// once.
func tinyScale() Scale {
	return Scale{
		BulkDur:  1 * time.Second,
		VideoDur: 4 * time.Second,
		Pages:    2,
		Loads:    1,
	}
}

// capture runs one experiment at scale and returns its rendered table
// plus its hvc-run-report/v1 bundle, both as bytes. Every invocation
// builds a fresh Report and Registry so nothing leaks between runs.
func capture(t *testing.T, name string, seed int64, scale Scale) (stdout, report []byte) {
	t.Helper()
	var out bytes.Buffer
	rep := telemetry.NewReport(name, seed)
	tracer := telemetry.New()
	e := Env{
		Seed:   seed,
		Scale:  scale,
		Tracer: tracer,
		Report: rep,
		Prefix: name + "/",
		Out:    &out,
	}
	if err := Run(name, e); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	rep.AttachCounters(tracer.Registry())
	if err := tracer.Close(); err != nil {
		t.Fatalf("%s seed %d: close tracer: %v", name, seed, err)
	}
	var repBuf bytes.Buffer
	if err := rep.WriteJSON(&repBuf); err != nil {
		t.Fatalf("%s seed %d: encode report: %v", name, seed, err)
	}
	return out.Bytes(), repBuf.Bytes()
}

// TestDeterminismMatrix is the cross-package determinism gate: every
// registered experiment, run twice per seed for two seeds, must
// produce byte-identical rendered tables AND byte-identical JSON run
// reports (metrics plus the full counter snapshot). A diff here means
// some layer — sim loop, channel model, transport, steering, cc,
// workload, telemetry — consumed entropy outside the seeded RNG or
// iterated a map into its output.
func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is ~1 min; skipped with -short")
	}
	t.Parallel()
	for _, name := range Order() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 42} {
				out1, rep1 := capture(t, name, seed, tinyScale())
				out2, rep2 := capture(t, name, seed, tinyScale())
				if !bytes.Equal(out1, out2) {
					t.Errorf("seed %d: rendered output differs between identical runs\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, out1, out2)
				}
				if !bytes.Equal(rep1, rep2) {
					t.Errorf("seed %d: run report differs between identical runs\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, rep1, rep2)
				}
				if len(out1) == 0 {
					t.Errorf("seed %d: experiment rendered no output", seed)
				}
				// The report must survive a parse/re-encode cycle
				// unchanged, the property the fuzz harness pins.
				parsed, err := telemetry.ParseReport(bytes.NewReader(rep1))
				if err != nil {
					t.Fatalf("seed %d: report does not parse: %v", seed, err)
				}
				var again bytes.Buffer
				if err := parsed.WriteJSON(&again); err != nil {
					t.Fatalf("seed %d: re-encode: %v", seed, err)
				}
				if !bytes.Equal(rep1, again.Bytes()) {
					t.Errorf("seed %d: report not byte-stable through parse/encode", seed)
				}
			}
		})
	}
}

// TestSeedsActuallyMatter guards the other side of determinism:
// different seeds must produce different results, or the matrix test
// above would pass trivially on a runner that ignores its RNG.
func TestSeedsActuallyMatter(t *testing.T) {
	t.Parallel()
	_, rep1 := capture(t, "fig2", 1, tinyScale())
	_, rep2 := capture(t, "fig2", 2, tinyScale())
	// Reports embed the seed, so strip the seed line before comparing;
	// the metric values themselves must differ somewhere.
	if bytes.Equal(rep1, rep2) {
		t.Fatal("fig2 reports for seeds 1 and 2 are identical including the seed field")
	}
	r1, err := telemetry.ParseReport(bytes.NewReader(rep1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := telemetry.ParseReport(bytes.NewReader(rep2))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Metrics) == 0 || len(r2.Metrics) == 0 {
		t.Fatal("fig2 recorded no metrics")
	}
	same := true
	for i := range r1.Metrics {
		if i < len(r2.Metrics) && r1.Metrics[i].Value != r2.Metrics[i].Value {
			same = false
			break
		}
	}
	if same {
		t.Error("every fig2 metric identical across seeds 1 and 2; runner appears to ignore its seed")
	}
}

// TestRegistryOrderIndependence pins Valid/Order consistency so the
// CLI's name validation and the matrix above cover the same set.
func TestRegistryOrderIndependence(t *testing.T) {
	names := Order()
	if len(names) == 0 {
		t.Fatal("empty experiment registry")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !Valid(n) {
			t.Errorf("Order() lists %q but Valid(%q) is false", n, n)
		}
		if seen[n] {
			t.Errorf("duplicate experiment %q in Order()", n)
		}
		seen[n] = true
	}
	if Valid("no-such-experiment") {
		t.Error(`Valid("no-such-experiment") = true`)
	}
	// Order must return a fresh copy: mutating it must not corrupt the
	// registry for later callers.
	names[0] = "mutated"
	if !Valid(Order()[0]) || Order()[0] == "mutated" {
		t.Error("Order() exposes internal slice; mutation leaked into registry")
	}
}
