package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilTracerIsSafe also covers the nil Report, which commands pass
// around when no -report was asked for.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every method must be callable on nil without panicking.
	tr.BindClock(func() time.Duration { return 0 })
	tr.BeginRun("x")
	tr.Emit(Event{Layer: LayerChannel, Name: EvEnqueue})
	tr.Count("c", 1, "k", "v")
	tr.SetGauge("g", 2)
	if tr.Registry() != nil {
		t.Fatal("nil tracer should have nil registry")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	var reg *Registry
	reg.Add("c", 1)
	reg.Set("g", 1)
	if reg.Value("c") != 0 || reg.Snapshot() != nil {
		t.Fatal("nil registry should read empty")
	}
	var r *Report
	r.SetConfig("k", "v")
	r.AddMetric("m", 1, "")
	r.AddSketch("s", nil)
	r.SketchDist("d", nil)
	r.SketchSeries("ts", nil)
	r.AttachCounters(reg)
}

func TestTracerStampsVirtualTime(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONL(&buf))
	now := 250 * time.Millisecond
	tr.BindClock(func() time.Duration { return now })
	tr.Emit(Event{Layer: LayerTransport, Name: EvSend, Flow: 3, Seq: 7, Bytes: 1456})
	line := strings.TrimSpace(buf.String())
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("bad JSONL line %q: %v", line, err)
	}
	if got["at_us"].(float64) != 250_000 {
		t.Fatalf("at_us = %v, want 250000", got["at_us"])
	}
	if got["layer"] != LayerTransport || got["name"] != EvSend {
		t.Fatalf("wrong classification: %v", got)
	}
}

func TestRegistryDeterministicSnapshot(t *testing.T) {
	reg := NewRegistry()
	// Insert in one order, label keys in shuffled order.
	reg.Add("drops", 2, "side", "A", "channel", "urllc")
	reg.Add("drops", 1, "channel", "embb", "side", "A")
	reg.Set("cwnd", 14600, "flow", "2")
	reg.Add("drops", 3, "channel", "urllc", "side", "A") // same entry as first
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d records, want 3", len(snap))
	}
	// Sorted: cwnd, drops{embb}, drops{urllc}.
	if snap[0].Name != "cwnd" || snap[1].Labels["channel"] != "embb" || snap[2].Labels["channel"] != "urllc" {
		t.Fatalf("unexpected order: %+v", snap)
	}
	if snap[2].Value != 5 {
		t.Fatalf("label order should address one counter; got %v, want 5", snap[2].Value)
	}
	if reg.Value("drops", "side", "A", "channel", "urllc") != 5 {
		t.Fatal("Value lookup with reordered labels failed")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("counter reused as gauge should panic")
		}
	}()
	reg := NewRegistry()
	reg.Add("x", 1)
	reg.Set("x", 1)
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeTrace(&buf)
	tr := New(sink)
	now := time.Duration(0)
	tr.BindClock(func() time.Duration { return now })
	tr.BeginRun("test-run")
	tr.Emit(Event{Layer: LayerChannel, Name: EvEnqueue, Channel: "embb", Bytes: 1500})
	now = 10 * time.Millisecond
	tr.Emit(Event{Layer: LayerCC, Name: EvCwnd, Flow: 2, Value: 29200, Detail: "bbr"})
	tr.Emit(Event{Layer: LayerSteering, Name: EvDecision, Flow: 2, Channel: "urllc", Detail: "control:faster"})
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var instants, counters, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "i":
			instants++
			for _, k := range []string{"name", "ts", "pid", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("instant event missing %q: %v", k, ev)
				}
			}
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if instants != 3 || counters != 1 || meta < 3 {
		t.Fatalf("got %d instants, %d counters, %d metadata; want 3, 1, >=3", instants, counters, meta)
	}
}

func TestChromeTraceEmptyStillValid(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeTrace(&buf)
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace invalid: %v", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := NewReport("fig1b", 7)
	rep.SetConfig("cc", "bbr")
	rep.SetConfig("policy", "dchannel")
	rep.AddMetric("goodput", 41.5, "Mbps")
	reg := NewRegistry()
	reg.Add("transport_retransmits", 12, "flow", "2")
	rep.AttachCounters(reg)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Schema != ReportSchema || got.Experiment != "fig1b" || got.Seed != 7 {
		t.Fatalf("header mangled: %+v", got)
	}
	if len(got.Metrics) != 1 || got.Metrics[0].Value != 41.5 {
		t.Fatalf("metrics mangled: %+v", got.Metrics)
	}
	if len(got.Counters) != 1 || got.Counters[0].Value != 12 {
		t.Fatalf("counters mangled: %+v", got.Counters)
	}
}

func TestJSONLOmitsEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONL(&buf))
	tr.Emit(Event{Layer: LayerChannel, Name: EvDrop, Channel: "embb", Detail: "queue"})
	line := strings.TrimSpace(buf.String())
	for _, absent := range []string{"seq", "msg", "dur_us", "value", "flow", "bytes"} {
		if strings.Contains(line, `"`+absent+`"`) {
			t.Fatalf("zero field %q serialized: %s", absent, line)
		}
	}
}

func TestJoinNames(t *testing.T) {
	if JoinNames([]string{"a"}) != "a" || JoinNames([]string{"a", "b"}) != "a,b" || JoinNames(nil) != "" {
		t.Fatal("JoinNames convention broken")
	}
}
