package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	sp := newSpans()
	sp.add("outer", 1, 100*ms)
	sp.add("outer/first", 2, 30*ms) // siblings under outer
	sp.add("outer/second", 1, 20*ms)
	sp.add("outer/first/leaf", 5, 10*ms) // nested two deep
	sp.add("alone", 3, 7*ms)             // no children: self is total

	want := map[string]struct {
		parent      string
		count       int64
		total, self time.Duration
	}{
		"outer":  {"", 1, 100 * ms, 50 * ms},
		"first":  {"outer", 2, 30 * ms, 20 * ms},
		"second": {"outer", 1, 20 * ms, 20 * ms},
		"leaf":   {"outer/first", 5, 10 * ms, 10 * ms},
		"alone":  {"", 3, 7 * ms, 7 * ms},
	}
	rows := sp.rows()
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		w := want[r.Name]
		if r.Parent != w.parent || r.Count != w.count ||
			time.Duration(r.TotalNs) != w.total || time.Duration(r.SelfNs) != w.self {
			t.Errorf("span %s: got %+v, want %+v", r.Name, r, w)
		}
	}
	if d, n := sp.total("first"); d != 30*ms || n != 2 {
		t.Errorf("total(first) = %v, %d", d, n)
	}
	if d, n := sp.total("never-entered"); d != 0 || n != 0 {
		t.Errorf("a span never entered reads %v, %d, want zero", d, n)
	}
	if got := sp.self("outer"); got != 50*ms {
		t.Errorf("self(outer) = %v, want 50ms", got)
	}
}

func TestSpanNesting(t *testing.T) {
	sp := newSpans()
	endOuter := sp.begin("outer")
	for i := 0; i < 3; i++ {
		sp.begin("inner")()
	}
	sp.add("counted", 10, time.Microsecond)
	endOuter()
	sp.begin("outer")() // a second entry aggregates into the first

	byPath := map[string]spanRow{}
	for _, r := range sp.rows() {
		byPath[r.Parent+"/"+r.Name] = r
	}
	if r := byPath["/outer"]; r.Count != 2 {
		t.Errorf("outer entered %d times, want 2", r.Count)
	}
	if r := byPath["outer/inner"]; r.Count != 3 {
		t.Errorf("inner entered %d times under outer, want 3", r.Count)
	}
	if r := byPath["outer/counted"]; r.Count != 10 || r.TotalNs != 1000 {
		t.Errorf("counted = %+v", r)
	}
	if r := byPath["/outer"]; r.SelfNs > r.TotalNs || r.SelfNs < 0 {
		t.Errorf("outer self %d outside [0, total %d]", r.SelfNs, r.TotalNs)
	}

	var off *spans // tracing off: same calls, nothing recorded
	off.begin("x")()
	off.add("y", 1, time.Second)
	if off.rows() != nil {
		t.Error("nil recorder has rows")
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hvc/internal/transport.(*Conn).handleAck":     "transport",
		"hvc/internal/transport.(*Conn).trySend.func1": "transport",
		"hvc/internal/cc.(*BBR).OnAck":                 "cc",
		"hvc/internal/sim.(*Loop).siftDown":            "sim",
		"hvc/internal/netem.(*Link).Send":              "netem",
		"hvc/internal/channel.(*Channel).Send":         "channel",
		"hvc/internal/steering.(*DChannel).Pick":       "steering",
		"hvc/internal/app/video.(*Receiver).onMessage": "app",
		"hvc/internal/app/web.LoadWith":                "app",
		"hvc/internal/trace.(*Trace).At":               "trace",
		"hvc/internal/sketch.(*Sketch).Observe":        "sketch",
		"hvc/internal/metrics.(*Distribution).Add":     "metrics",
		"hvc/internal/core.RunBulk":                    "harness",
		"hvc/internal/pool.Reduce[...]":                "harness",
		"hvc/internal/fleet.runUE":                     "harness",
		"hvc/internal/packet.(*Pool).Get":              "other",
		"hvc/internal/telemetry.(*Tracer).Emit":        "other",
		"runtime.mallocgc":                             "runtime",
		"runtime.asyncPreempt":                         "runtime",
		"runtime.gcBgMarkWorker":                       "runtime",
		"runtime/internal/atomic.(*Uint32).Load":       "runtime",
		"internal/runtime/atomic.(*Uint32).Load":       "runtime",
		"internal/bytealg.IndexByteString":             "runtime",
		"math/rand.(*Rand).Float64":                    "other",
		"sort.Float64s":                                "other",
		"main.(*timedCC).OnAck":                        "other",
		"unknown":                                      "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// cannedTop is `go tool pprof -top` output shape: the bucketer works on
// the flat column and the function name, whoever extracted them.
const cannedTop = `      flat  flat%   sum%        cum   cum%
     660ms 33.00% 33.00%      700ms 35.00%  hvc/internal/transport.(*Conn).handleAck
     340ms 17.00% 50.00%      340ms 17.00%  runtime.mallocgc
     240ms 12.00% 62.00%      300ms 15.00%  hvc/internal/sim.(*Loop).siftDown
     400ms 20.00% 82.00%      400ms 20.00%  hvc/internal/cc.(*BBR).OnAck
     200ms 10.00% 92.00%      200ms 10.00%  runtime.asyncPreempt
     160ms  8.00%   100%      160ms  8.00%  sort.Float64s
`

func TestSelfFracs(t *testing.T) {
	leaves := map[string]int64{}
	for _, line := range strings.Split(cannedTop, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) != 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			t.Fatal(err)
		}
		leaves[f[5]] = int64(d / (10 * time.Millisecond)) // 100 Hz samples
	}
	out := map[string]float64{}
	selfFracs(leaves, out)
	want := map[string]float64{"transport": 0.33, "runtime": 0.27, "sim": 0.12, "cc": 0.20, "other": 0.08}
	sum := 0.0
	for _, b := range profileBuckets {
		got := out[b+".self_frac"]
		sum += got
		if math.Abs(got-want[b]) > 1e-9 {
			t.Errorf("%s.self_frac = %v, want %v", b, got, want[b])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("buckets sum to %v, want 1", sum)
	}
}

// Hand-encoded profile.proto pieces for TestDecodeLeaves.
func pbVarint(v uint64) []byte {
	var b []byte
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbField(num int, v uint64) []byte { return append(pbVarint(uint64(num)<<3), pbVarint(v)...) }

func pbBytes(num int, payload []byte) []byte {
	b := append(pbVarint(uint64(num)<<3|2), pbVarint(uint64(len(payload)))...)
	return append(b, payload...)
}

func TestDecodeLeaves(t *testing.T) {
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = append(b, pbVarint(v)...)
		}
		return b
	}
	var prof []byte
	for _, s := range []string{"", "samples", "count", "leafFn", "callerFn", "inlinedFn"} {
		prof = append(prof, pbBytes(6, []byte(s))...)
	}
	prof = append(prof, pbBytes(5, append(pbField(1, 1), pbField(2, 3)...))...) // function 1 = leafFn
	prof = append(prof, pbBytes(5, append(pbField(1, 2), pbField(2, 4)...))...) // function 2 = callerFn
	prof = append(prof, pbBytes(5, append(pbField(1, 3), pbField(2, 5)...))...) // function 3 = inlinedFn
	prof = append(prof, pbBytes(4, append(pbField(1, 10), pbBytes(4, pbField(1, 1))...))...)
	prof = append(prof, pbBytes(4, append(pbField(1, 11), pbBytes(4, pbField(1, 2))...))...)
	// Location 12: inlinedFn inlined into callerFn; the first line is innermost.
	loc12 := append(pbField(1, 12), pbBytes(4, pbField(1, 3))...)
	prof = append(prof, pbBytes(4, append(loc12, pbBytes(4, pbField(1, 2))...))...)
	// Samples: packed location ids (leaf first) and packed values (count, ns).
	prof = append(prof, pbBytes(2, append(pbBytes(1, packed(10, 11)), pbBytes(2, packed(7, 70))...))...)
	prof = append(prof, pbBytes(2, append(pbBytes(1, packed(11)), pbBytes(2, packed(2, 20))...))...)
	prof = append(prof, pbBytes(2, append(pbBytes(1, packed(12, 11)), pbBytes(2, packed(1, 10))...))...)
	// Unpacked repeated fields are legal too.
	unpacked := append(append(pbField(1, 10), pbField(1, 11)...), append(pbField(2, 3), pbField(2, 30)...)...)
	prof = append(prof, pbBytes(2, unpacked)...)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	leaves, err := decodeLeaves(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"leafFn": 10, "callerFn": 2, "inlinedFn": 1}
	if len(leaves) != len(want) {
		t.Fatalf("leaves = %v, want %v", leaves, want)
	}
	for fn, n := range want {
		if leaves[fn] != n {
			t.Errorf("leaves[%s] = %d, want %d", fn, leaves[fn], n)
		}
	}
	if _, err := decodeLeaves(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestSummarizeMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize("s", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize("s", []float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("summarize(1,2,4) = %+v", s)
	}
	if s := summarize("s", []float64{3}); s.Q1 != 3 || s.Median != 3 || s.Q3 != 3 || s.spread() != 0 {
		t.Errorf("summarize(3) = %+v", s)
	}
}

var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameGrammar.MatchString(name) {
			t.Errorf("%s name %q is outside the name grammar", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	targets := map[string]bool{}
	for _, d := range endToEnd {
		check("end-to-end", d.name)
		targets[d.name] = true
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range perLayer {
		check("per-layer", d.name)
		if _, ok := findWorkload(d.mirrors); !ok && d.mirrors != "all" {
			t.Errorf("%s mirrors unknown workload %q", d.name, d.mirrors)
		}
		if !targets[d.target] {
			t.Errorf("%s targets unknown end-to-end metric %q", d.name, d.target)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitGrammar.MatchString(d.unit) {
			t.Errorf("%s: unit %q is outside the unit grammar", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	for _, b := range profileBuckets {
		if unitOf(perLayer, b+".self_frac") == "" {
			t.Errorf("profile bucket %s has no %s.self_frac metric", b, b)
		}
	}
}

// TestBenchmarkJSON is half of the two-way name check: BENCHMARK.json
// declares exactly the metrics and workloads the tables here define.
// TestQuickRun is the other half: a run emits exactly those tables.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if strings.Join(decl.Command, " ") != "go run ./bench" || len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", decl.Command, decl.Paths)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", decl.RunSeconds, runSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, decl.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, declared []metric, defined []metricDef, bounded bool) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(declared), len(defined))
		}
		for i, d := range defined {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: declared bound %v, defined %v", kind, d.name, m.Bound, d.bound)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
}

// TestQuickRun runs the whole benchmark in-process at smoke-test size.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulations; skipped under -short")
	}
	if raceEnabled {
		t.Skip("timings under -race say nothing and take minutes")
	}
	start := time.Now()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -quick exited %d\n%s", code, stderr.String())
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("bench -quick took %v, want under 15s", d)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	for i, wr := range rep.Workloads {
		if wr.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, wr.Name, workloads[i].name)
		}
		if wr.FailedFrac != 0 || wr.Failed != 0 || wr.Attempted == 0 || len(wr.Errors) > 0 {
			t.Errorf("%s: failed %d of %d, errors %v", wr.Name, wr.Failed, wr.Attempted, wr.Errors)
		}
		if len(wr.SimDigest) != 64 {
			t.Errorf("%s: sim_digest %q", wr.Name, wr.SimDigest)
		}
		if len(wr.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", wr.Name, len(wr.EndToEnd), len(endToEnd))
		}
		for _, d := range endToEnd {
			s, ok := wr.EndToEnd[d.name]
			if !ok || s.N == 0 || !(s.Median > 0) || s.Unit != d.unit {
				t.Errorf("%s: end-to-end %s = %+v", wr.Name, d.name, s)
			}
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", wr.Name, len(wr.PerLayer), len(perLayer))
		}
		fracs := 0.0
		for _, d := range perLayer {
			v, ok := wr.PerLayer[d.name]
			if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v, present %v", wr.Name, d.name, v, ok)
			}
			if strings.HasSuffix(d.name, ".self_frac") {
				fracs += v.Value
			}
		}
		if math.Abs(fracs-1) > 0.01 {
			t.Errorf("%s: self_frac buckets sum to %v", wr.Name, fracs)
		}
		if len(wr.Spans) == 0 {
			t.Errorf("%s: no spans dumped", wr.Name)
		}
	}

	// The driver's one-line form carries exactly the declared names.
	stdout.Reset()
	if code := run([]string{"-quick", "-workload", "fleet-video", "-trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -trace 0 exited %d\n%s", code, stderr.String())
	}
	var line struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]value
	}
	if err := json.Unmarshal(stdout.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", line)
	}
	for _, d := range endToEnd {
		if _, ok := line.Metrics[d.name]; !ok {
			t.Errorf("result line lacks %s", d.name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "units_per_s", better: "higher", bound: 0.10}
	tight := func(med float64) summary { // 2 % quartile spread
		return summary{Median: med, Q1: med * 0.99, Q3: med * 1.01, Min: med * 0.98, Max: med * 1.02, N: 12}
	}
	wide := func(med float64) summary { // 30 % quartile spread
		return summary{Median: med, Q1: med * 0.85, Q3: med * 1.15, Min: med * 0.7, Max: med * 1.3, N: 12}
	}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new summary
		want     string
	}{
		{"same", lower, tight(1), tight(1.01), unchanged},
		{"slower past the bound", lower, tight(1), tight(1.2), regressed},
		{"slower within the bound", lower, tight(1), tight(1.08), unchanged},
		{"faster past the bound, no overlap", lower, tight(1), tight(0.8), improved},
		{"faster within the bound, no overlap", lower, tight(1), tight(0.93), unchanged},
		{"faster, overlapping", lower, tight(1), tight(0.97), unchanged},
		{"rate fell past the bound", higher, tight(100), tight(80), regressed},
		{"rate rose, no overlap", higher, tight(100), tight(120), improved},
		{"spread wider than the bound, overlapping", lower, wide(1), wide(1.15), unresolved},
		{"spread wider than the bound, disjoint and worse", lower, wide(1), wide(3), regressed},
		{"spread wider than the bound, disjoint and better", lower, wide(3), wide(1), improved},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	mk := func(wall float64, failed int, digest string) report {
		e2e := map[string]summary{}
		for _, d := range endToEnd {
			v := wall
			if d.better == "higher" {
				v = 1 / wall
			}
			e2e[d.name] = summary{Unit: d.unit, Median: v, Q1: v * 0.99, Q3: v * 1.01, Min: v * 0.98, Max: v * 1.02, N: 12}
		}
		return report{Schema: reportSchema, Workloads: []workloadReport{{Name: "fig1a-bulk", Attempted: 48,
			Failed: failed, FailedFrac: float64(failed) / 48, SimDigest: digest, EndToEnd: e2e}}}
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(2, 0, "aa"))
	for _, c := range []struct {
		name string
		r    report
		code int
		want string
	}{
		{"same.json", mk(2.02, 0, "aa"), 0, unchanged},
		{"slow.json", mk(3, 0, "aa"), 1, regressed},
		{"fast.json", mk(1, 0, "aa"), 0, improved},
		{"failing.json", mk(2, 1, "aa"), 1, "failed_frac"},
		{"other.json", mk(2, 0, "bb"), 1, "CHANGED"},
		{"fewer.json", report{Schema: reportSchema}, 1, "MISSING"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-compare", base, write(c.name, c.r)}, &stdout, &stderr); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", base, filepath.Join(dir, "missing.json")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
