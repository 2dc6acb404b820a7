package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"hvc/internal/sketch"
)

func TestProgressSketches(t *testing.T) {
	m := NewMeter()
	for i := 1; i <= 100; i++ {
		m.Observe("latency_ms", float64(i))
	}
	g := sketch.NewGroup()
	g.Observe("zzz_single", 7)
	m.Merge(g)
	got := m.Progress().Sketches
	if len(got) != 2 {
		t.Fatalf("got %d sketches, want 2: %+v", len(got), got)
	}
	lat := got[0]
	if lat.Name != "latency_ms" || lat.N != 100 || lat.Min != 1 || lat.Max != 100 {
		t.Fatalf("first sketch = %+v", lat)
	}
	if rel := (lat.P50 - 50) / 50; rel > sketch.DefaultAlpha || rel < -sketch.DefaultAlpha {
		t.Fatalf("p50 = %v, want within %v of 50", lat.P50, sketch.DefaultAlpha)
	}
	if got[1].Name != "zzz_single" || got[1].P99 != 7 {
		t.Fatalf("second sketch = %+v", got[1])
	}

	// A meter nothing was observed into has no sketches (the omitempty
	// shape), and a nil meter is inert.
	if out := NewMeter().Progress().Sketches; len(out) != 0 {
		t.Fatalf("fresh meter has sketches %+v", out)
	}
	var none *Meter
	none.SetTotal(3)
	none.Add(1, 1)
	none.Observe("x", 1)
	none.Merge(g)
	if p := none.Progress(); !reflect.DeepEqual(p, Progress{}) {
		t.Fatalf("nil meter progress = %+v", p)
	}
}

// syncWriter serializes writes: the emitter goroutine and the test's
// reads would otherwise race on the buffer.
type syncWriter struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func newSyncWriter() *syncWriter {
	w := &syncWriter{mu: make(chan struct{}, 1)}
	w.mu <- struct{}{}
	return w
}

func (w *syncWriter) Write(p []byte) (int, error) {
	<-w.mu
	defer func() { w.mu <- struct{}{} }()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	<-w.mu
	defer func() { w.mu <- struct{}{} }()
	return w.buf.String()
}

func TestStartProgressEmitsSnapshotLines(t *testing.T) {
	w := newSyncWriter()
	m := NewMeter()
	m.SetTotal(40)
	m.Add(5, 3)
	m.Observe("plt_ms", 200)
	stop := StartProgress(w, 2*time.Millisecond, m)
	time.Sleep(20 * time.Millisecond)
	m.Add(35, 0)
	stop()
	stop() // idempotent

	lines := strings.Split(strings.TrimSuffix(w.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("want ticker lines plus a final line, got %d:\n%s", len(lines), w.String())
	}
	for _, line := range lines {
		var p Progress
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if p.Schema != ProgressSchema {
			t.Fatalf("schema = %q, want %q", p.Schema, ProgressSchema)
		}
		if p.Total != 40 || p.Cached != 3 {
			t.Fatalf("snapshot = %+v", p)
		}
		if len(p.Sketches) != 1 || p.Sketches[0].Name != "plt_ms" || p.Sketches[0].N != 1 {
			t.Fatalf("sketches = %+v", p.Sketches)
		}
	}
	// The final (stop-time) line sees everything counted before stop.
	var last Progress
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Done != 40 || last.EtaS != 0 {
		t.Fatalf("final snapshot = %+v, want done 40 and no eta", last)
	}
}

func TestStartProgressDerivesEta(t *testing.T) {
	// A mid-run snapshot derives the rate from done units over elapsed
	// time, and the ETA as the remaining units over that rate. A
	// finished run gets none: eta_s would be a lie once done == total.
	m := NewMeter()
	m.SetTotal(40)
	m.Add(30, 0)
	p := m.snapshot(6 * time.Second)
	if p.RatePerS != 5 || p.EtaS != 2 {
		t.Fatalf("rate_per_s = %v, eta_s = %v; want 5 and 2 (10 remaining at 5/s)", p.RatePerS, p.EtaS)
	}
	if p := m.snapshot(0); p.RatePerS != 0 || p.EtaS != 0 {
		t.Fatalf("no elapsed time, yet rate %v and eta %v", p.RatePerS, p.EtaS)
	}
	m.Add(10, 0)
	if p := m.snapshot(8 * time.Second); p.RatePerS != 5 || p.EtaS != 0 {
		t.Fatalf("finished run: rate %v, eta %v; want 5 and none", p.RatePerS, p.EtaS)
	}
}

func TestStartProgressFinalLineWithoutTicks(t *testing.T) {
	// Short runs never reach the first tick; stop must still emit one
	// snapshot so the surface is never silent.
	w := newSyncWriter()
	m := NewMeter()
	m.SetTotal(40)
	stop := StartProgress(w, time.Hour, m)
	m.Add(40, 0)
	stop()
	var p Progress
	if err := json.Unmarshal([]byte(strings.TrimSuffix(w.String(), "\n")), &p); err != nil {
		t.Fatalf("final line %q: %v", w.String(), err)
	}
	if p.Done != 40 || p.Total != 40 || p.Schema != ProgressSchema {
		t.Fatalf("final snapshot = %+v", p)
	}
}

func TestReportSketches(t *testing.T) {
	r := NewReport("fig2", 1)
	r.AddMetric("fig2/duplication/latency_p50", 30, "ms")

	s := sketch.NewDefault()
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i))
	}
	r.AddSketch("fig2/duplication/latency_ms", s)
	r.AddSketch("skipped-empty", sketch.NewDefault())
	r.AddSketch("skipped-nil", nil)

	if len(r.Sketches) != 1 {
		t.Fatalf("sketches = %+v, want exactly the non-empty one", r.Sketches)
	}
	sk := r.Sketches[0]
	if sk.Name != "fig2/duplication/latency_ms" || sk.N != 1000 || sk.Min != 1 || sk.Max != 1000 {
		t.Fatalf("sketch summary = %+v", sk)
	}
	if rel := (sk.P95 - 950) / 950; rel > sketch.DefaultAlpha || rel < -sketch.DefaultAlpha {
		t.Fatalf("p95 = %v, want within %v of 950", sk.P95, sketch.DefaultAlpha)
	}

	// Round trip: parse normalizes, re-encode is byte-stable.
	var b1 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b1.String(), `"sketches"`) {
		t.Fatalf("serialized report missing sketches:\n%s", b1.String())
	}
	r2, err := ParseReport(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("round trip unstable:\n%s\n----\n%s", b1.Bytes(), b2.Bytes())
	}

	// A report without sketches serializes exactly as before the field
	// existed: additive means omitted, not null or [].
	plain := NewReport("fig1a", 2)
	plain.AddMetric("m", 1, "")
	var pb bytes.Buffer
	if err := plain.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pb.String(), "sketches") {
		t.Fatalf("sketch-free report mentions sketches:\n%s", pb.String())
	}
}
