// Package experiments is the registry of the paper's named
// experiments — every table, figure, and ablation cmd/hvcbench can
// run — and the one place each experiment's grid (its CCAs, traces,
// policies, βs) is written. A runner loops over its grid calling
// internal/core's single-run runners, renders its human-readable table
// to Env.Out and records headline metrics into Env.Report, so the same
// registry serves the CLI's seed loop, BenchmarkExperiments, and the
// cross-package determinism suite: a runner's byte output is a pure
// function of (name, seed, scale).
package experiments

import (
	"fmt"
	"io"
	"time"

	"hvc/internal/arena"
	"hvc/internal/core"
	"hvc/internal/fleet"
	"hvc/internal/metrics"
	"hvc/internal/sketch"
	"hvc/internal/telemetry"
)

// registry lists every experiment in "all" execution order.
var registry = []struct {
	name string
	run  func(Env) error
}{
	{"fig1a", fig1a},
	{"fig1b", fig1b},
	{"fig2", fig2},
	{"table1", table1},
	{"ablation-cc", ablationCC},
	{"ablation-mptcp", ablationMultipath},
	{"ablation-mlo", ablationMLO},
	{"ablation-cost", ablationCost},
	{"ablation-beta", ablationBeta},
	{"ablation-tail", ablationTail},
	{"ablation-ians", ablationIANS},
	{"ablation-has", ablationHAS},
	{"ablation-tsn", ablationTSN},
	{"outage", outage},
	{"fleet", fleetExp},
	{"arena", arenaExp},
}

// Order lists every experiment in "all" execution order; it is also
// the source of cmd/hvcbench's -exp usage string, so the two cannot
// drift.
func Order() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}

// lookup returns the named experiment's runner, or nil.
func lookup(name string) func(Env) error {
	for _, r := range registry {
		if r.name == name {
			return r.run
		}
	}
	return nil
}

// Valid reports whether name is a registered experiment.
func Valid(name string) bool { return lookup(name) != nil }

// The paper's grids, each written here once: a runner loops over its
// grid in order, which is also the row (or column) order of its table.
var (
	// fig1aCCAs are Fig. 1a's congestion controls; the §3.2 ablation
	// wraps the delay-based ones, all but CUBIC.
	fig1aCCAs     = []string{"cubic", "bbr", "vegas", "vivace"}
	delayBasedCCs = fig1aCCAs[1:]

	fig2Traces   = []string{"lowband-driving", "mmwave-driving"}
	fig2Policies = []string{core.PolicyEMBBOnly, core.PolicyDChannel, core.PolicyPriority}

	table1Traces   = []string{"lowband-stationary", "lowband-driving"}
	table1Policies = []string{core.PolicyEMBBOnly, core.PolicyDChannel, core.PolicyDChannelPriority}

	// iansPolicies compare object-granularity steering (IANS) with
	// both baselines, for web (ablation-ians) and HAS (ablation-has).
	iansPolicies = []string{core.PolicyEMBBOnly, core.PolicyObjectMap, core.PolicyDChannel}

	// betas are the DChannel reward/cost coefficients ablation-beta
	// sweeps.
	betas = []float64{0.25, 0.5, 1, 2, 4, 8}
)

// Scale sizes the experiments that have adjustable corpora or
// durations.
type Scale struct {
	BulkDur  time.Duration
	VideoDur time.Duration
	Pages    int
	Loads    int
}

// FullScale reproduces the paper's evaluation scale.
func FullScale() Scale {
	return Scale{BulkDur: 60 * time.Second, VideoDur: 60 * time.Second, Pages: 30, Loads: 5}
}

// QuickScale shortens runs and shrinks corpora for smoke testing
// (hvcbench -quick).
func QuickScale() Scale {
	return Scale{BulkDur: 15 * time.Second, VideoDur: 20 * time.Second, Pages: 6, Loads: 2}
}

// Env carries one runner invocation's knobs and observability hooks.
type Env struct {
	Seed  int64
	Scale Scale
	// CDF dumps full CDFs/time series instead of summaries.
	CDF bool
	// Tracer receives cross-layer telemetry; nil disables tracing.
	Tracer *telemetry.Tracer
	// Report, when non-nil, accumulates headline metrics.
	Report *telemetry.Report
	// Prefix is the metric-name prefix, "<exp>/" or "<exp>/seed<N>/".
	Prefix string
	// Out receives the human-readable tables; nil means io.Discard.
	Out io.Writer
	// Fault overrides the outage experiment's fault scenario (the
	// internal/fault grammar); empty keeps the default schedule. Other
	// experiments ignore it.
	Fault string
}

// metric records one headline value into the run report, when one is
// being assembled.
func (e Env) metric(name string, v float64, unit string) {
	e.Report.AddMetric(e.Prefix+name, v, unit)
}

// Run executes one named experiment under e.
func Run(name string, e Env) error {
	fn := lookup(name)
	if fn == nil {
		return fmt.Errorf("experiments: unknown experiment %q", name)
	}
	if e.Out == nil {
		e.Out = io.Discard
	}
	return fn(e)
}

func fig1a(e Env) error {
	fmt.Fprintf(e.Out, "== Figure 1a: CCA throughput with DChannel steering (eMBB 50ms/60Mbps + URLLC 5ms/2Mbps, %v) ==\n", e.Scale.BulkDur)
	fmt.Fprintf(e.Out, "%-8s %12s %12s %8s\n", "cca", "mbps", "retransmits", "rtos")
	for _, name := range fig1aCCAs {
		r, err := core.RunBulk(core.BulkConfig{Seed: e.Seed, Duration: e.Scale.BulkDur, CC: name, Tracer: e.Tracer})
		if err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "%-8s %12.2f %12d %8d\n", r.CC, r.Mbps, r.Retransmits, r.RTOs)
		e.metric(r.CC+"/goodput", r.Mbps, "Mbps")
		e.metric(r.CC+"/retransmits", float64(r.Retransmits), "")
	}
	fmt.Fprintln(e.Out)
	return nil
}

func fig1b(e Env) error {
	fmt.Fprintf(e.Out, "== Figure 1b: BBR packet RTTs under DChannel steering (%v) ==\n", e.Scale.BulkDur)
	r, err := core.RunBulk(core.BulkConfig{Seed: e.Seed, Duration: e.Scale.BulkDur, CC: "bbr", Tracer: e.Tracer})
	if err != nil {
		return err
	}
	if e.CDF {
		fmt.Fprintln(e.Out, "t_s\trtt_ms\tchannel")
		for i, p := range r.RTT.Points() {
			fmt.Fprintf(e.Out, "%.3f\t%.2f\t%s\n", p.At.Seconds(), p.Value, r.RTTChannel(i))
		}
	} else {
		fmt.Fprintf(e.Out, "%8s %10s %10s %10s\n", "t", "min_ms", "mean_ms", "max_ms")
		for _, b := range r.RTT.Buckets(2 * time.Second) {
			fmt.Fprintf(e.Out, "%8v %10.1f %10.1f %10.1f\n", b.Start, b.Min, b.Mean, b.Max)
		}
	}
	fmt.Fprintf(e.Out, "throughput: %.2f Mbps over %v\n\n", r.Mbps, e.Scale.BulkDur)
	e.metric("goodput", r.Mbps, "Mbps")
	e.metric("rtt_samples", float64(r.RTT.N()), "")
	e.Report.SketchSeries(e.Prefix+"rtt_ms", &r.RTT)
	return nil
}

func fig2(e Env) error {
	for _, tr := range fig2Traces {
		fmt.Fprintf(e.Out, "== Figure 2: real-time SVC video over %s + URLLC (%v) ==\n", tr, e.Scale.VideoDur)
		var results []core.VideoResult
		for _, policy := range fig2Policies {
			r, err := core.RunVideo(core.VideoConfig{
				Seed: e.Seed, Duration: e.Scale.VideoDur, Trace: tr, Policy: policy, Tracer: e.Tracer,
			})
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		fmt.Fprintf(e.Out, "%-20s %9s %9s %9s %9s %8s %7s\n",
			"policy", "p50_ms", "p95_ms", "p99_ms", "max_ms", "ssim", "frozen")
		for _, r := range results {
			fmt.Fprintf(e.Out, "%-20s %9.0f %9.0f %9.0f %9.0f %8.3f %7d\n",
				r.Policy,
				r.Latency.Percentile(50), r.Latency.Percentile(95),
				r.Latency.Percentile(99), r.Latency.Max(),
				r.SSIM.Mean(), r.Frozen)
			e.metric(tr+"/"+r.Policy+"/latency_p95", r.Latency.Percentile(95), "ms")
			e.metric(tr+"/"+r.Policy+"/ssim_mean", r.SSIM.Mean(), "")
			e.metric(tr+"/"+r.Policy+"/frozen", float64(r.Frozen), "frames")
			e.Report.SketchDist(e.Prefix+tr+"/"+r.Policy+"/latency_ms", &r.Latency)
		}
		if e.CDF {
			for _, r := range results {
				fmt.Fprintf(e.Out, "-- latency CDF (%s/%s) --\n%s", tr, r.Policy,
					metrics.FormatCDF(r.Latency.CDF(50), "latency_ms"))
				fmt.Fprintf(e.Out, "-- ssim CDF (%s/%s) --\n%s", tr, r.Policy,
					metrics.FormatCDF(r.SSIM.CDF(20), "ssim"))
			}
		}
		fmt.Fprintln(e.Out)
	}
	return nil
}

func table1(e Env) error {
	fmt.Fprintf(e.Out, "== Table 1: web PLT (ms) with background traffic (%d pages x %d loads) ==\n", e.Scale.Pages, e.Scale.Loads)
	fmt.Fprintf(e.Out, "%-22s %14s %20s %24s\n", "trace", "embb-only", "dchannel", "dchannel+priority")
	for _, tr := range table1Traces {
		var base float64
		cells := make([]string, len(table1Policies))
		for i, policy := range table1Policies {
			r, err := core.RunWeb(core.WebConfig{
				Seed: e.Seed, Trace: tr, Policy: policy,
				Pages: e.Scale.Pages, Loads: e.Scale.Loads, Tracer: e.Tracer,
			})
			if err != nil {
				return err
			}
			if i == 0 {
				base = r.PLT.Mean()
				cells[i] = fmt.Sprintf("%.1f", r.PLT.Mean())
			} else {
				cells[i] = fmt.Sprintf("%.1f (%.1f%%)", r.PLT.Mean(), 100*(1-r.PLT.Mean()/base))
			}
			e.metric(tr+"/"+r.Policy+"/plt_mean", r.PLT.Mean(), "ms")
			e.Report.SketchDist(e.Prefix+tr+"/"+r.Policy+"/plt_ms", &r.PLT)
		}
		fmt.Fprintf(e.Out, "%-22s %14s %20s %24s\n", tr, cells[0], cells[1], cells[2])
	}
	fmt.Fprintln(e.Out)
	return nil
}

func ablationCC(e Env) error {
	fmt.Fprintf(e.Out, "== Ablation (§3.2): HVC-aware congestion control (%v) ==\n", e.Scale.BulkDur)
	fmt.Fprintf(e.Out, "%-8s %14s %14s %10s\n", "cca", "plain_mbps", "hvc_mbps", "speedup")
	for _, name := range delayBasedCCs {
		plain, err := core.RunBulk(core.BulkConfig{Seed: e.Seed, Duration: e.Scale.BulkDur, CC: name, Tracer: e.Tracer})
		if err != nil {
			return err
		}
		aware, err := core.RunBulk(core.BulkConfig{Seed: e.Seed, Duration: e.Scale.BulkDur, CC: "hvc-" + name, Tracer: e.Tracer})
		if err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "%-8s %14.2f %14.2f %9.1fx\n", name, plain.Mbps, aware.Mbps, aware.Mbps/plain.Mbps)
		e.metric(name+"/plain_goodput", plain.Mbps, "Mbps")
		e.metric(name+"/hvc_goodput", aware.Mbps, "Mbps")
	}
	fmt.Fprintln(e.Out)
	return nil
}

func ablationMLO(e Env) error {
	fmt.Fprintln(e.Out, "== Ablation (§2.2/§3.1): Wi-Fi MLO redundancy, 1200B messages at 100/s ==")
	fmt.Fprintf(e.Out, "%-12s %10s %10s %10s %12s\n", "mode", "delivery", "p50_ms", "p99_ms", "pkts_on_air")
	for _, red := range []bool{false, true} {
		r := core.RunMLO(e.Seed, 2000, 1200, 10*time.Millisecond, red)
		fmt.Fprintf(e.Out, "%-12s %9.2f%% %10.1f %10.1f %12d\n",
			r.Mode, 100*r.DeliveryRate, r.Latency.Percentile(50), r.Latency.Percentile(99), r.PacketsOnAir)
	}
	fmt.Fprintln(e.Out)
	return nil
}

func ablationCost(e Env) error {
	fmt.Fprintln(e.Out, "== Ablation (§3.1): latency vs cost on a priced cISP-style path ==")
	fmt.Fprintf(e.Out, "%-14s %10s %10s %12s %10s\n", "budget_B/s", "mean_ms", "p95_ms", "spent_bytes", "dollars")
	for _, budget := range []float64{0, 5_000, 50_000, 500_000, 5_000_000} {
		r := core.RunCost(e.Seed, 500, 20*time.Millisecond, budget)
		fmt.Fprintf(e.Out, "%-14.0f %10.1f %10.1f %12d %10.4f\n",
			budget, r.Latency.Mean(), r.Latency.Percentile(95), r.SpentBytes, r.Dollars)
	}
	fmt.Fprintln(e.Out)
	return nil
}

func ablationMultipath(e Env) error {
	fmt.Fprintf(e.Out, "== Ablation (§1/§3.1): MPTCP-style aggregation vs steering (%v) ==\n", e.Scale.BulkDur)
	fmt.Fprintf(e.Out, "%-12s %12s %12s %12s %14s\n", "bulk mode", "bulk_mbps", "probe_p50", "probe_p95", "urllc_maxq_B")
	for _, mode := range []string{"multipath", "dchannel", "priority"} {
		r := core.RunMultipath(e.Seed, e.Scale.BulkDur, mode)
		fmt.Fprintf(e.Out, "%-12s %12.2f %10.1fms %10.1fms %14d\n",
			r.Mode, r.BulkMbps, r.Probe.Percentile(50), r.Probe.Percentile(95), r.URLLCMaxQueue)
	}
	fmt.Fprintln(e.Out)
	return nil
}

func ablationBeta(e Env) error {
	fmt.Fprintln(e.Out, "== Ablation (design choice): DChannel reward/cost β on SVC video (lowband-driving, 30s) ==")
	fmt.Fprintf(e.Out, "%-8s %12s %10s %14s\n", "beta", "p95_ms", "ssim", "urllc_share")
	for _, beta := range betas {
		p := core.RunBeta(e.Seed, 30*time.Second, beta)
		fmt.Fprintf(e.Out, "%-8.2f %12.0f %10.3f %13.1f%%\n", p.Beta, p.P95Latency, p.SSIM, 100*p.URLLCShare)
	}
	fmt.Fprintln(e.Out)
	return nil
}

func ablationTail(e Env) error {
	fmt.Fprintln(e.Out, "== Ablation (§3.2): end-of-message tail acceleration, 60kB messages at 20/s ==")
	fmt.Fprintf(e.Out, "%-12s %10s %10s %10s\n", "mode", "mean_ms", "p95_ms", "max_ms")
	for _, boost := range []bool{false, true} {
		r := core.RunTailBoost(e.Seed, 500, 60_000, 50*time.Millisecond, boost)
		fmt.Fprintf(e.Out, "%-12s %10.1f %10.1f %10.1f\n",
			r.Mode, r.Latency.Mean(), r.Latency.Percentile(95), r.Latency.Max())
	}
	fmt.Fprintln(e.Out)
	return nil
}

func ablationIANS(e Env) error {
	fmt.Fprintf(e.Out, "== Ablation (§1 baseline): object-granularity (IANS) vs packet steering, web PLT (%d pages x %d loads) ==\n", e.Scale.Pages, e.Scale.Loads)
	fmt.Fprintf(e.Out, "%-14s %12s %12s\n", "policy", "mean_plt_ms", "p95_plt_ms")
	for _, policy := range iansPolicies {
		r, err := core.RunWeb(core.WebConfig{
			Seed: e.Seed, Trace: "lowband-stationary", Policy: policy,
			Pages: e.Scale.Pages, Loads: e.Scale.Loads, Tracer: e.Tracer,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "%-14s %12.1f %12.1f\n", policy, r.PLT.Mean(), r.PLT.Percentile(95))
	}
	fmt.Fprintln(e.Out)
	return nil
}

func ablationHAS(e Env) error {
	fmt.Fprintln(e.Out, "== Ablation (§1 IANS-for-HAS): adaptive streaming over mmwave-driving + URLLC, 60s media ==")
	fmt.Fprintf(e.Out, "%-12s %10s %12s %10s %10s %10s\n", "policy", "startup", "rebuffer", "events", "mean_mbps", "switches")
	for _, policy := range iansPolicies {
		r, err := core.RunABR(core.ABRConfig{Seed: e.Seed, Media: 60 * time.Second, Trace: "mmwave-driving", Policy: policy})
		if err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "%-12s %10v %12v %10d %10.2f %10d\n",
			r.Policy, r.StartupDelay.Round(time.Millisecond),
			r.RebufferTime.Round(time.Millisecond), r.RebufferEvents,
			r.MeanBitrate/1e6, r.Switches)
	}
	fmt.Fprintln(e.Out)
	return nil
}

func outage(e Env) error {
	fmt.Fprintf(e.Out, "== Outage (§2.1 reliability): 30fps frames through channel blackouts (%v) ==\n", e.Scale.VideoDur)
	fmt.Fprintf(e.Out, "%-12s %10s %10s %10s %10s\n", "policy", "delivery", "stall_ms", "p50_ms", "p99_ms")
	var fault string
	for _, policy := range []string{core.PolicyEMBBOnly, core.PolicyDChannel, core.PolicyRedundant} {
		r, err := core.RunOutage(core.OutageConfig{
			Seed: e.Seed, Duration: e.Scale.VideoDur, Policy: policy,
			Fault: e.Fault, Tracer: e.Tracer,
		})
		if err != nil {
			return err
		}
		fault = r.Fault
		fmt.Fprintf(e.Out, "%-12s %9.2f%% %10.1f %10.1f %10.1f\n",
			r.Policy, 100*r.DeliveryRate(),
			float64(r.Stall.Microseconds())/1000,
			r.Delay.Percentile(50), r.Delay.Percentile(99))
		e.metric(policy+"/delivery_rate", r.DeliveryRate(), "")
		e.metric(policy+"/stall_ms", float64(r.Stall.Microseconds())/1000, "ms")
		e.metric(policy+"/delay_p99", r.Delay.Percentile(99), "ms")
		e.Report.SketchDist(e.Prefix+policy+"/delay_ms", &r.Delay)
	}
	fmt.Fprintf(e.Out, "fault: %s\n\n", fault)
	return nil
}

// fleetExp runs a miniature fleet: the population view of the paper's
// operator argument, a few dozen heterogeneous UE sessions aggregated
// through mergeable sketches (internal/fleet). The fleet size stays
// small here because cmd/hvcfleet is the real population interface —
// this runner exists so the cross-package determinism matrix and
// cmd/hvcbench cover the fleet path end to end. Session length
// follows the scale's bulk duration, capped so full-scale bench runs
// stay proportionate.
func fleetExp(e Env) error {
	dur := e.Scale.BulkDur
	if dur > 2*time.Second {
		dur = 2 * time.Second
	}
	spec, err := fleet.ParseSpec(fmt.Sprintf(
		"ues=24 seed=%d policy=dchannel,embb-only dur=%s stagger=2s", e.Seed, dur))
	if err != nil {
		return err
	}
	res, err := fleet.Run(spec, fleet.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "== Fleet (population view): %d heterogeneous UE sessions, sketch-aggregated ==\n", res.UEs)
	if err := res.WriteTable(e.Out); err != nil {
		return err
	}
	fmt.Fprintln(e.Out)
	for _, app := range []string{fleet.AppBulk, fleet.AppVideo, fleet.AppWeb} {
		e.metric("ues/"+app, float64(res.Apps[app]), "")
	}
	res.Group.Do(func(name string, s *sketch.Sketch) {
		e.Report.AddSketch(e.Prefix+name, s)
	})
	return nil
}

// arenaExp runs the multi-flow contention arena: four competitors on
// four different CCAs with staggered joins and heterogeneous RTTs over
// the shared channel set, reporting per-flow shares, the Jain index,
// convergence time, and throughput/delay ellipse points
// (internal/arena). Duration follows the scale's bulk duration, capped
// so full-scale bench runs stay proportionate.
func arenaExp(e Env) error {
	dur := e.Scale.BulkDur
	if dur > 12*time.Second {
		dur = 12 * time.Second
	}
	spec, err := arena.ParseSpec(fmt.Sprintf(
		"flows=4 mix=cubic,copa,bbr,reno join=%s rttspread=20ms seed=%d dur=%s",
		dur/8, e.Seed, dur))
	if err != nil {
		return err
	}
	res, err := arena.Run(spec, arena.Options{Tracer: e.Tracer})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "== Arena: %d-flow contention, mixed CCAs, staggered joins (%v) ==\n", spec.Flows, spec.Dur)
	fmt.Fprintf(e.Out, "%-8s %10s %12s %8s %12s %12s %10s %10s %6s\n",
		"cca", "join", "goodput", "share", "tput_mean", "tput_std", "rtt_mean", "rtt_std", "retr")
	for _, fr := range res.Flows {
		fmt.Fprintf(e.Out, "%-8s %10v %10.2fMb %7.1f%% %10.2fMb %10.2fMb %8.1fms %8.1fms %6d\n",
			fr.CC, fr.JoinAt.Round(time.Millisecond), fr.GoodputMbps, 100*fr.Share,
			fr.MeanTputMbps, fr.StdTputMbps, fr.MeanRTTms, fr.StdRTTms, fr.Retransmits)
		e.metric(fr.CC+"/goodput", fr.GoodputMbps, "Mbps")
		e.metric(fr.CC+"/share", fr.Share, "")
	}
	if res.Converged {
		fmt.Fprintf(e.Out, "jain=%.3f converged %v after last join\n\n", res.Jain, res.Convergence.Round(time.Millisecond))
		e.metric("convergence_s", res.Convergence.Seconds(), "s")
	} else {
		fmt.Fprintf(e.Out, "jain=%.3f not converged within %v\n\n", res.Jain, spec.Dur)
	}
	e.metric("jain", res.Jain, "")
	res.Group.Do(func(name string, s *sketch.Sketch) {
		e.Report.AddSketch(e.Prefix+name, s)
	})
	return nil
}

func ablationTSN(e Env) error {
	fmt.Fprintln(e.Out, "== Ablation (§2.2): wireless TSN vs contended best-effort Wi-Fi, 60ms control loops ==")
	fmt.Fprintf(e.Out, "%-14s %12s %12s %12s\n", "mode", "miss_rate", "p99_ms", "completed")
	for _, useTSN := range []bool{false, true} {
		r := core.RunTSN(e.Seed, 10*time.Second, useTSN)
		fmt.Fprintf(e.Out, "%-14s %11.1f%% %12.1f %12d\n", r.Mode, 100*r.MissRate, r.P99Latency, r.Completed)
	}
	fmt.Fprintln(e.Out)
	return nil
}
