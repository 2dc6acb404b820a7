package sweep

import (
	"fmt"

	"hvc/internal/arena"
	"hvc/internal/core"
	"hvc/internal/telemetry"
)

// A job is one independent simulation: a cell at one seed.
type job struct {
	spec Spec
	cell cellKey
	seed int64
}

// A MetricValue is one scalar a job produced. Jobs of the same
// experiment kind report the same metrics in the same order.
type MetricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// line renders the job as the line of its one run (see Spec.Line).
func (j job) line() string {
	return j.spec.render(j.cell.CC, j.cell.Policy, j.cell.Trace, fmt.Sprintf("seed=%d", j.seed))
}

// key renders the job's cache key: its line, which is everything the
// spec decides about its result, and the build that computes it, which
// is everything else (see cache.go).
func (j job) key(build string) string { return j.line() + "\nbuild=" + build + "\n" }

// ParseCell parses the line of one run: a spec, as ParseSpec reads it,
// of one cell at one seed. A grid or a seed range is an error.
func ParseCell(line string) (Spec, error) {
	s, err := ParseSpec(line)
	if err != nil {
		return Spec{}, err
	}
	if _, err := s.only(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// RunCell validates s, which must hold one cell at one seed, and runs
// it with tr (nil for none) receiving its telemetry. It returns the
// run's error; the metrics are the sweep's business. A panic inside the
// simulation, an invariant violation included, is not recovered.
func RunCell(s Spec, tr *telemetry.Tracer) error {
	if err := s.defaultAndValidate(s.setKeys()); err != nil {
		return err
	}
	j, err := s.only()
	if err != nil {
		return err
	}
	_, err = j.run(tr)
	return err
}

// only returns the one job of a validated spec of one cell at one seed.
func (s Spec) only() (job, error) {
	cells := s.cells()
	if len(cells) != 1 || s.SeedCount != 1 {
		return job{}, fmt.Errorf("sweep: %q is a grid, not one run (one cell at one seed)", s.Line())
	}
	return job{spec: s, cell: cells[0], seed: s.SeedFirst}, nil
}

// run executes the job's simulation with tr (nil for none) receiving
// its telemetry, and returns its metrics in the experiment kind's fixed
// order.
func (j job) run(tr *telemetry.Tracer) ([]MetricValue, error) {
	switch j.spec.Exp {
	case ExpBulk:
		r, err := core.RunBulk(core.BulkConfig{
			Seed: j.seed, Duration: j.spec.Dur, CC: j.cell.CC,
			Policy: j.cell.Policy, Trace: j.cell.Trace, Fault: j.spec.Fault, Tracer: tr,
		})
		if err != nil {
			return nil, err
		}
		return []MetricValue{
			{"goodput_mbps", r.Mbps},
			{"retransmits", float64(r.Retransmits)},
			{"rtos", float64(r.RTOs)},
		}, nil
	case ExpVideo:
		r, err := core.RunVideo(core.VideoConfig{
			Seed: j.seed, Duration: j.spec.Dur, Trace: j.cell.Trace, Policy: j.cell.Policy, Tracer: tr,
		})
		if err != nil {
			return nil, err
		}
		return []MetricValue{
			{"latency_p50_ms", r.Latency.Percentile(50)},
			{"latency_p95_ms", r.Latency.Percentile(95)},
			{"latency_p99_ms", r.Latency.Percentile(99)},
			{"ssim_mean", r.SSIM.Mean()},
			{"frozen_frames", float64(r.Frozen)},
		}, nil
	case ExpWeb:
		r, err := core.RunWeb(core.WebConfig{
			Seed: j.seed, Trace: j.cell.Trace, Policy: j.cell.Policy,
			Pages: j.spec.Pages, Loads: j.spec.Loads, Tracer: tr,
		})
		if err != nil {
			return nil, err
		}
		return []MetricValue{
			{"plt_mean_ms", r.PLT.Mean()},
			{"plt_p95_ms", r.PLT.Percentile(95)},
		}, nil
	case ExpABR:
		r, err := core.RunABR(core.ABRConfig{
			Seed: j.seed, Media: j.spec.Dur, Trace: j.cell.Trace, Policy: j.cell.Policy,
		})
		if err != nil {
			return nil, err
		}
		return []MetricValue{
			{"startup_ms", float64(r.StartupDelay.Microseconds()) / 1000},
			{"rebuffer_ms", float64(r.RebufferTime.Microseconds()) / 1000},
			{"rebuffer_events", float64(r.RebufferEvents)},
			{"mean_bitrate_mbps", r.MeanBitrate / 1e6},
			{"switches", float64(r.Switches)},
		}, nil
	case ExpOutage:
		r, err := core.RunOutage(core.OutageConfig{
			Seed: j.seed, Duration: j.spec.Dur, Policy: j.cell.Policy, Fault: j.spec.Fault,
			Reliable: j.spec.Reliable, Tracer: tr,
		})
		if err != nil {
			return nil, err
		}
		return []MetricValue{
			{"delivery_rate", r.DeliveryRate()},
			{"stall_ms", float64(r.Stall.Microseconds()) / 1000},
			{"delay_p50_ms", r.Delay.Percentile(50)},
			{"delay_p99_ms", r.Delay.Percentile(99)},
		}, nil
	case ExpArena:
		r, err := arena.Run(arena.Spec{
			Flows: j.spec.Flows, Seed: j.seed, Mix: j.spec.Mix,
			Join: j.spec.Join, RTTSpread: j.spec.RTTSpread, Dur: j.spec.Dur,
			Policy: j.cell.Policy, Trace: j.cell.Trace,
		}, arena.Options{Tracer: tr})
		if err != nil {
			return nil, err
		}
		lo, hi, total := r.Flows[0].GoodputMbps, r.Flows[0].GoodputMbps, 0.0
		for _, fr := range r.Flows {
			total += fr.GoodputMbps
			if fr.GoodputMbps < lo {
				lo = fr.GoodputMbps
			}
			if fr.GoodputMbps > hi {
				hi = fr.GoodputMbps
			}
		}
		// convergence_s is censored at the run length when the arena never
		// converges, so multi-seed means stay finite and comparable.
		conv, converged := j.spec.Dur.Seconds(), 0.0
		if r.Converged {
			conv, converged = r.Convergence.Seconds(), 1
		}
		return []MetricValue{
			{"jain", r.Jain},
			{"converged", converged},
			{"convergence_s", conv},
			{"goodput_total_mbps", total},
			{"goodput_min_mbps", lo},
			{"goodput_max_mbps", hi},
		}, nil
	default:
		return nil, fmt.Errorf("sweep: unknown experiment %q", j.spec.Exp)
	}
}
