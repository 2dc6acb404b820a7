package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hvc/internal/sketch"
)

// ProgressSchema identifies the live progress snapshot line layout.
const ProgressSchema = "hvc-progress/v1"

// A Progress is one machine-readable snapshot of a long run, emitted
// as a single JSON line.
type Progress struct {
	Schema   string  `json:"schema"`
	ElapsedS float64 `json:"elapsed_s"`
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	// RatePerS is the completion rate in done-units per wall second
	// (UEs/sec for fleet runs, jobs/sec for sweeps).
	RatePerS float64 `json:"rate_per_s,omitempty"`
	// EtaS estimates the remaining wall seconds at the current rate.
	// It is omitted until a rate exists and once the run is done, so
	// consumers must treat it as advisory, not monotone.
	EtaS     float64          `json:"eta_s,omitempty"`
	Cached   int              `json:"cached,omitempty"`
	Sketches []sketch.Summary `json:"sketches,omitempty"`
}

// A Meter is the live progress of one engine run: how many units
// (sweep jobs, fleet UEs, chaos trials) are done out of the total, how
// many of the done ones were cache hits, and the metric sketches the
// finished units fed. The engine sets the total once its defaults are
// applied and counts units as they finish, from any goroutine. A nil
// *Meter is the disabled meter: every method is a no-op.
//
// A meter only observes. Units finish in completion order, so nothing
// that builds a result may read one.
type Meter struct {
	done, total, cached atomic.Int64
	sketches            *sketch.Group
}

// NewMeter returns a meter with nothing done and no total yet.
func NewMeter() *Meter { return &Meter{sketches: sketch.NewGroup()} }

// SetTotal records how many units the run will count.
func (m *Meter) SetTotal(n int) {
	if m != nil {
		m.total.Store(int64(n))
	}
}

// Add counts n finished units, cached of which were cache hits.
func (m *Meter) Add(n, cached int) {
	if m != nil {
		// done first, so a reader (cached, then done) never sees more
		// hits than finished units.
		m.done.Add(int64(n))
		m.cached.Add(int64(cached))
	}
}

// Observe records v into the named live sketch.
func (m *Meter) Observe(name string, v float64) {
	if m != nil {
		m.sketches.Observe(name, v)
	}
}

// Merge folds a finished unit's sketch group into the live sketches.
func (m *Meter) Merge(g *sketch.Group) {
	if m != nil {
		m.sketches.Merge(g)
	}
}

// Progress snapshots the meter. The zero Progress stands for a nil
// meter.
func (m *Meter) Progress() Progress {
	if m == nil {
		return Progress{}
	}
	cached := int(m.cached.Load())
	return Progress{
		Done: int(m.done.Load()), Total: int(m.total.Load()), Cached: cached,
		Sketches: m.sketches.Snapshot(),
	}
}

// snapshot is the progress line elapsed into the run: the meter's
// counts plus the wall-clock fields derived from them.
func (m *Meter) snapshot(elapsed time.Duration) Progress {
	p := m.Progress()
	p.Schema = ProgressSchema
	p.ElapsedS = roundMS(elapsed.Seconds())
	if p.Done > 0 && p.ElapsedS > 0 {
		p.RatePerS = roundMS(float64(p.Done) / p.ElapsedS)
	}
	if p.RatePerS > 0 && p.Done < p.Total {
		p.EtaS = roundMS(float64(p.Total-p.Done) / p.RatePerS)
	}
	return p
}

// StartProgress launches a background emitter that samples m every
// interval and writes the snapshot as one JSON line to w. The returned
// stop function emits one final snapshot — so short runs still produce
// at least one line — and joins the emitter; call it after the run.
//
// w is typically stderr, so progress interleaves with nothing the
// run's consumers parse. Wall-clock timing makes the line stream
// inherently non-deterministic; results stay byte-identical because
// nothing downstream reads it.
func StartProgress(w io.Writer, every time.Duration, m *Meter) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	start := time.Now()
	emit := func() {
		b, err := json.Marshal(m.snapshot(time.Since(start)))
		if err != nil {
			return
		}
		w.Write(append(b, '\n'))
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				emit()
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			wg.Wait()
			emit()
		})
	}
}

// roundMS rounds elapsed seconds to milliseconds so progress lines
// stay short; precision beyond that is noise at the cadences used.
func roundMS(s float64) float64 {
	return float64(int64(s*1000+0.5)) / 1000
}
