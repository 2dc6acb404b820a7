package sweep

import (
	"errors"
	"fmt"

	"hvc/internal/core"
	"hvc/internal/pool"
	"hvc/internal/telemetry"
)

// Options configure one sweep run. The zero value runs on GOMAXPROCS
// workers with no cache and no progress meter.
type Options struct {
	// Workers caps the worker goroutines; <= 0 means GOMAXPROCS. The
	// worker count never affects the result: the matrix is aggregated
	// in grid order, not completion order.
	Workers int
	// CacheDir roots the result cache (conventionally ".hvcsweep");
	// empty disables caching. Entries are keyed on the cell, the seed
	// and a hash of the running executable (see cache.go); Run fails
	// before any job if that hash cannot be read.
	CacheDir string
	// Meter, when non-nil, counts finished jobs and cache hits against
	// the job count and receives every finished job's metric values
	// (one observation per MetricValue, under the metric's name). The
	// Matrix never reads it, so results stay byte-identical with or
	// without one.
	Meter *telemetry.Meter
}

// testRunJob, when non-nil, replaces job.run — it lets tests inject
// job-level failures that no validated spec can produce.
var testRunJob func(job) ([]MetricValue, error)

// Run expands the spec's grid into one job per (cell, seed), executes
// the jobs across a worker pool — each simulation loop is
// single-threaded and self-contained — and aggregates per-cell
// statistics over seeds. The returned Matrix is deterministic:
// bit-identical for any worker count and any cache state, because
// cells aggregate in grid order over per-seed values in seed order.
func Run(spec Spec, opt Options) (*Matrix, error) {
	if err := spec.defaultAndValidate(spec.setKeys()); err != nil {
		return nil, err
	}
	disk, err := openCache(opt.CacheDir)
	if err != nil {
		return nil, err
	}
	cells := spec.cells()
	jobs := make([]job, 0, len(cells)*spec.SeedCount)
	for _, c := range cells {
		for i := 0; i < spec.SeedCount; i++ {
			jobs = append(jobs, job{spec: spec, cell: c, seed: spec.SeedFirst + int64(i)})
		}
	}

	run := func(j job) ([]MetricValue, error) { return j.run(nil) }
	if testRunJob != nil {
		run = testRunJob
	}
	opt.Meter.SetTotal(len(jobs))
	results, err := pool.Map(len(jobs), opt.Workers, func(i int) ([]MetricValue, error) {
		j := jobs[i]
		metrics, hit := disk.load(j)
		if !hit {
			var err error
			metrics, err = run(j)
			if err != nil {
				return nil, err
			}
			if err := disk.store(j, metrics); err != nil {
				return nil, err
			}
		}
		for _, mv := range metrics {
			opt.Meter.Observe(mv.Name, mv.Value)
		}
		cached := 0
		if hit {
			cached = 1
		}
		opt.Meter.Add(1, cached)
		return metrics, nil
	})
	if err != nil {
		var pe *pool.Error
		if errors.As(err, &pe) {
			j := jobs[pe.Index]
			return nil, fmt.Errorf("sweep: %s: %w", j.line(), pe.Err)
		}
		return nil, err
	}

	m := &Matrix{Schema: MatrixSchema, Spec: spec.String(), Jobs: len(jobs)}
	for ci, c := range cells {
		cell := Cell{
			Exp: spec.Exp, CC: c.CC, Policy: c.Policy, Trace: c.Trace,
			Seeds: fmt.Sprintf("%d..%d", spec.SeedFirst, spec.SeedFirst+int64(spec.SeedCount)-1),
		}
		// Every seed of a cell reports the same metrics in the same
		// order; aggregate each metric over the seeds in seed order.
		first := results[ci*spec.SeedCount]
		for mi, mv := range first {
			vals := make([]float64, spec.SeedCount)
			for si := 0; si < spec.SeedCount; si++ {
				vals[si] = results[ci*spec.SeedCount+si][mi].Value
			}
			cell.Metrics = append(cell.Metrics, CellMetric{Name: mv.Name, Summary: core.Summarize(vals)})
		}
		m.Cells = append(m.Cells, cell)
	}
	return m, nil
}
