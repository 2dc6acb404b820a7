package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"hvc/internal/metrics"
	"hvc/internal/sketch"
)

// ReportSchema identifies the run-report JSON layout. Bump it when a
// field changes meaning; additive fields keep the version.
const ReportSchema = "hvc-run-report/v1"

// A Metric is one headline result of a run: a named scalar with a
// unit. Metrics keep insertion order, so a report reads in the order
// the experiment produced its numbers.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// A Report is the machine-readable record of one experiment
// invocation: what ran (experiment, seed, config), what came out
// (headline metrics), and the final counter snapshot. Every field
// serializes deterministically, so reports diff cleanly between runs
// and append mechanically to the bench trajectory. Like a nil Tracer,
// a nil Report records nothing: every method but WriteJSON is a no-op
// on it.
type Report struct {
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"`
	Seed       int64             `json:"seed"`
	Config     map[string]string `json:"config,omitempty"`
	Metrics    []Metric          `json:"metrics"`
	Sketches   []sketch.Summary  `json:"sketches,omitempty"`
	Counters   []Record          `json:"counters,omitempty"`
}

// NewReport starts a report for the named experiment and seed.
func NewReport(experiment string, seed int64) *Report {
	return &Report{Schema: ReportSchema, Experiment: experiment, Seed: seed}
}

// SetConfig records one configuration key (trace name, policy, CCA,
// duration) describing the run.
func (r *Report) SetConfig(key, value string) {
	if r == nil {
		return
	}
	if r.Config == nil {
		r.Config = make(map[string]string)
	}
	r.Config[key] = value
}

// AddMetric appends one headline metric.
func (r *Report) AddMetric(name string, value float64, unit string) {
	if r == nil {
		return
	}
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// AddSketch appends the named sketch's summary: tail visibility at
// fixed memory beside the headline Metrics, which stay the paper's
// exact numbers. Empty sketches are skipped: a distribution nothing was
// observed into says nothing worth a report line, and skipping keeps
// sketch emission additive (reports without observations serialize
// exactly as before the field existed).
func (r *Report) AddSketch(name string, s *sketch.Sketch) {
	if r == nil || s == nil || s.N() == 0 {
		return
	}
	r.Sketches = append(r.Sketches, s.Summarize(name))
}

// SketchDist folds a result distribution into the sketch section. The
// samples feed in sorted order (Values), so the summary, like every
// report field, is a pure function of the run's results.
func (r *Report) SketchDist(name string, d *metrics.Distribution) {
	if r == nil || d.N() == 0 {
		return
	}
	s := sketch.NewDefault()
	for _, v := range d.Values() {
		s.Observe(v)
	}
	r.AddSketch(name, s)
}

// SketchSeries folds a time series' values into the sketch section,
// feeding in time order.
func (r *Report) SketchSeries(name string, ts *metrics.TimeSeries) {
	if r == nil || ts.N() == 0 {
		return
	}
	s := sketch.NewDefault()
	for _, p := range ts.Points() {
		s.Observe(p.Value)
	}
	r.AddSketch(name, s)
}

// AttachCounters snapshots reg into the report, replacing any earlier
// snapshot. A nil registry clears the section.
func (r *Report) AttachCounters(reg *Registry) {
	if r == nil {
		return
	}
	r.Counters = reg.Snapshot()
}

// ParseReport reads a report WriteJSON produced, rejecting other
// schemas. The result is normalized so that re-encoding it with
// WriteJSON is byte-stable: empty sections collapse to their canonical
// empty form.
func ParseReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("telemetry: report: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("telemetry: report schema %q, want %q", r.Schema, ReportSchema)
	}
	if len(r.Config) == 0 {
		r.Config = nil
	}
	if len(r.Sketches) == 0 {
		r.Sketches = nil
	}
	if len(r.Counters) == 0 {
		r.Counters = nil
	}
	for i := range r.Counters {
		if len(r.Counters[i].Labels) == 0 {
			r.Counters[i].Labels = nil
		}
	}
	return &r, nil
}

// WriteJSON serializes the report, indented, to w. json.Marshal sorts
// the config map's keys, so output is deterministic.
func (r *Report) WriteJSON(w io.Writer) error {
	if r.Metrics == nil {
		r.Metrics = []Metric{} // serialize as [], not null
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
