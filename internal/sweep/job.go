package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"

	"hvc/internal/arena"
	"hvc/internal/core"
)

// cellSchema versions the job key layout and the metric set each
// experiment reports. Bump it when either changes: every cached cell
// invalidates at once.
const cellSchema = "hvc-sweep-cell/v2"

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

// key renders the job's canonical identity: everything that determines
// its result. The config fingerprints fold in the tuning constants of
// the congestion control and steering policy under test, so cached
// results invalidate when those change (see cache.go for the rule).
func (j job) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", cellSchema,
		j.spec.render(j.cell.CC, j.cell.Policy, j.cell.Trace, fmt.Sprintf("seed=%d", j.seed)))
	if j.cell.CC != "" {
		fp, _ := core.CCFingerprint(j.cell.CC)
		fmt.Fprintf(&b, "cc-config=%s\n", fp)
	}
	if j.spec.Exp == ExpArena {
		// Arena cells have no cc axis; the mix is the CCA knob, so every
		// algorithm it names folds its fingerprint in, in mix order.
		for _, e := range j.spec.Mix {
			fp, _ := core.CCFingerprint(e.Name)
			fmt.Fprintf(&b, "cc-config=%s\n", fp)
		}
	}
	fp, _ := core.PolicyFingerprint(j.cell.Policy)
	fmt.Fprintf(&b, "policy-config=%s\n", fp)
	fmt.Fprintf(&b, "code=%s\n", codeVersion())
	return b.String()
}

// hashKey is a rendered key's cache address: its SHA-256. Callers
// render the key once and reuse it for both the address and the hit
// check — key() walks the config fingerprints, so rebuilding it per
// lookup is what made the cached-sweep path regress.
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// hash is the job's cache address: SHA-256 of its canonical key.
func (j job) hash() string {
	return hashKey(j.key())
}

var codeVersionOnce = struct {
	sync.Once
	v string
}{}

// codeVersion identifies the simulator build in cache keys. Module
// version and VCS revision are stamped into release builds; a dev
// build without them relies on the fingerprints and schema tags above,
// plus the documented rule that .hvcsweep/ is cheap to delete. The
// build info cannot change while the process runs, so it is read once:
// debug.ReadBuildInfo re-parses the embedded module data on every
// call, which dominated cached-sweep lookups.
func codeVersion() string {
	codeVersionOnce.Do(func() {
		info, ok := debug.ReadBuildInfo()
		if !ok {
			codeVersionOnce.v = "unknown"
			return
		}
		version, revision := info.Main.Version, ""
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
		codeVersionOnce.v = version + "+" + revision
	})
	return codeVersionOnce.v
}

// run executes the job's simulation and returns its metrics, in the
// experiment kind's fixed order.
func (j job) run() ([]MetricValue, error) {
	switch j.spec.Exp {
	case ExpBulk:
		r, err := core.RunBulk(core.BulkConfig{
			Seed: j.seed, Duration: j.spec.Dur, CC: j.cell.CC,
			Policy: j.cell.Policy, Trace: j.cell.Trace,
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
			Seed: j.seed, Duration: j.spec.Dur, Trace: j.cell.Trace, Policy: j.cell.Policy,
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
			Pages: j.spec.Pages, Loads: j.spec.Loads,
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
			{"startup_ms", float64(r.StartupDelay.Milliseconds())},
			{"rebuffer_ms", float64(r.RebufferTime.Milliseconds())},
			{"rebuffer_events", float64(r.RebufferEvents)},
			{"mean_bitrate_mbps", r.MeanBitrate / 1e6},
			{"switches", float64(r.Switches)},
		}, nil
	case ExpOutage:
		r, err := core.RunOutage(core.OutageConfig{
			Seed: j.seed, Duration: j.spec.Dur, Policy: j.cell.Policy, Fault: j.spec.Fault,
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
		}, arena.Options{})
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
