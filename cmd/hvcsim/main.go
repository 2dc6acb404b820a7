// Command hvcsim runs one ad-hoc scenario: a single flow of the chosen
// kind (bulk transfer, web page load, or video stream) over a pair of
// heterogeneous virtual channels, with a chosen steering policy and
// congestion control. It is the exploration companion to hvcbench's
// fixed experiment suite.
//
//	hvcsim -workload bulk  -cc bbr   -policy dchannel -dur 30s
//	hvcsim -workload video -policy priority -trace mmwave-driving
//	hvcsim -workload web   -policy dchannel+priority -trace lowband-driving
//
// -report writes a machine-readable JSON run report and -tracefile a
// Perfetto-loadable Chrome trace of the run (bulk, video, and web
// workloads; -trace names the eMBB bandwidth trace, hence the longer
// flag for the event trace).
//
// A usage error (an unknown name, a non-positive -dur or -pages, a flag
// the workload does not read) exits 2 before simulating, with nothing
// on stdout. Output files are created before the run; if one cannot
// be, or the run fails, hvcsim exits 1 and removes them.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"hvc/internal/cli"
	"hvc/internal/core"
	"hvc/internal/metrics"
	"hvc/internal/telemetry"
)

// workloadFlags lists the flags each workload reads (besides
// -workload); setting any other flag is a usage error.
var workloadFlags = map[string][]string{
	"bulk":  {"cc", "policy", "trace", "dur", "seed", "capture", "report", "tracefile"},
	"video": {"policy", "trace", "dur", "seed", "report", "tracefile"},
	"web":   {"policy", "trace", "seed", "pages", "report", "tracefile"},
	"abr":   {"policy", "trace", "dur", "seed"},
	"game":  {"policy", "trace", "dur", "seed"},
}

func main() {
	out := cli.New("hvcsim")
	var (
		workload  = flag.String("workload", "bulk", "bulk, video, web, abr, or game")
		ccName    = flag.String("cc", "cubic", "bulk: congestion control ("+strings.Join(core.CCNames(), ", ")+", hvc-*)")
		policy    = flag.String("policy", core.PolicyDChannel, "steering policy (embb-only, dchannel, priority, dchannel+priority, objectmap, redundant)")
		traceNm   = flag.String("trace", "fixed", "eMBB trace ("+strings.Join(core.TraceNames(), ", ")+")")
		dur       = flag.Duration("dur", 30*time.Second, "run duration (abr: media duration; not read by web)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		pages     = flag.Int("pages", 5, "web: pages to load")
		capFile   = flag.String("capture", "", "bulk: write per-channel time series CSV to this file")
		reportF   = flag.String("report", "", "write a JSON run report to this file (bulk/video/web)")
		traceFile = flag.String("tracefile", "", "write a Chrome trace-event file (Perfetto-loadable) to this file (bulk/video/web)")
	)
	flag.Parse()

	if err := checkUsage(*workload, *ccName, *policy, *traceNm, *dur, *pages); err != nil {
		out.Usage(err)
	}
	tracer, report := out.Telemetry(*workload, *seed, *reportF, *traceFile, "")
	capture := out.Create(*capFile)
	report.SetConfig("workload", *workload)
	report.SetConfig("policy", *policy)
	report.SetConfig("trace", *traceNm)

	var err error
	switch *workload {
	case "bulk":
		report.SetConfig("cc", *ccName)
		report.SetConfig("dur", dur.String())
		err = runBulk(*seed, *dur, *ccName, *policy, *traceNm, tracer, report, capture)
	case "video":
		report.SetConfig("dur", dur.String())
		err = runVideo(*seed, *dur, *policy, *traceNm, tracer, report)
	case "web":
		report.SetConfig("pages", fmt.Sprint(*pages))
		err = runWeb(*seed, *policy, *traceNm, *pages, tracer, report)
	case "abr":
		err = runABR(*seed, *dur, *policy, *traceNm)
	case "game":
		err = runGame(*seed, *dur, *policy, *traceNm)
	}
	if err != nil {
		out.Fail(err)
	}
	out.Close()
}

// checkUsage rejects what hvcsim would otherwise find out only while
// simulating, or not at all: unknown names, out-of-range values, and
// flags the workload would silently ignore.
func checkUsage(workload, ccName, policy, traceNm string, dur time.Duration, pages int) error {
	reads, ok := workloadFlags[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: bulk, video, web, abr, game)", workload)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	var ignored string
	flag.Visit(func(f *flag.Flag) {
		if ignored == "" && f.Name != "workload" && !slices.Contains(reads, f.Name) {
			ignored = f.Name
		}
	})
	if ignored != "" {
		return fmt.Errorf("workload %s does not read -%s", workload, ignored)
	}
	// A workload that does not read -cc has rejected it above, so
	// ccName is then the valid default.
	if err := core.CheckNames([]string{ccName}, []string{policy}, []string{traceNm}); err != nil {
		return err
	}
	switch {
	case workload == "web" && policy == core.PolicyPriority:
		return fmt.Errorf("workload web does not support policy %q", policy)
	case dur <= 0:
		return fmt.Errorf("-dur must be positive, got %v", dur)
	case pages < 1:
		return fmt.Errorf("-pages must be at least 1, got %d", pages)
	}
	return nil
}

func runBulk(seed int64, dur time.Duration, ccName, policy, traceNm string,
	tracer *telemetry.Tracer, report *telemetry.Report, capture *os.File) error {
	cfg := core.BulkConfig{
		Seed: seed, Duration: dur, CC: ccName, Policy: policy, Trace: traceNm,
		Tracer: tracer,
	}
	if capture != nil {
		cfg.Capture = capture
	}
	r, err := core.RunBulk(cfg)
	if err != nil {
		return err
	}
	if capture != nil {
		fmt.Printf("  capture      wrote %s\n", capture.Name())
	}
	fmt.Printf("bulk %s/%s over %s for %v\n", ccName, policy, traceNm, dur)
	fmt.Printf("  goodput      %.2f Mbps\n", r.Mbps)
	fmt.Printf("  retransmits  %d (rtos %d)\n", r.Retransmits, r.RTOs)
	fmt.Printf("  rtt          %s\n", summarizeRTT(r))
	fmt.Printf("  channels     %s\n", core.SortedCounts(r.ChannelShare))
	report.AddMetric("goodput", r.Mbps, "Mbps")
	report.AddMetric("retransmits", float64(r.Retransmits), "")
	report.AddMetric("rtos", float64(r.RTOs), "")
	report.SketchSeries("rtt_ms", &r.RTT)
	return nil
}

func summarizeRTT(r core.BulkResult) string {
	if r.RTT.N() == 0 {
		return "no samples"
	}
	var dist metrics.Distribution
	for _, p := range r.RTT.Points() {
		dist.Add(p.Value)
	}
	return fmt.Sprintf("n=%d p50=%.1fms p95=%.1fms max=%.1fms",
		dist.N(), dist.Percentile(50), dist.Percentile(95), dist.Max())
}

func runVideo(seed int64, dur time.Duration, policy, traceNm string, tracer *telemetry.Tracer, report *telemetry.Report) error {
	r, err := core.RunVideo(core.VideoConfig{Seed: seed, Duration: dur, Trace: traceNm, Policy: policy, Tracer: tracer})
	if err != nil {
		return err
	}
	fmt.Printf("video %s over %s for %v\n", policy, traceNm, dur)
	fmt.Printf("  frames       %d sent, %d decoded, %d frozen\n", r.Sent, r.Decoded, r.Frozen)
	fmt.Printf("  latency      p50=%.0fms p95=%.0fms p99=%.0fms max=%.0fms\n",
		r.Latency.Percentile(50), r.Latency.Percentile(95), r.Latency.Percentile(99), r.Latency.Max())
	fmt.Printf("  ssim         mean=%.3f p5=%.3f\n", r.SSIM.Mean(), r.SSIM.Percentile(5))
	report.AddMetric("latency_p95", r.Latency.Percentile(95), "ms")
	report.AddMetric("ssim_mean", r.SSIM.Mean(), "")
	report.AddMetric("frozen", float64(r.Frozen), "frames")
	report.SketchDist("latency_ms", &r.Latency)
	return nil
}

func runWeb(seed int64, policy, traceNm string, pages int, tracer *telemetry.Tracer, report *telemetry.Report) error {
	r, err := core.RunWeb(core.WebConfig{
		Seed: seed, Trace: traceNm, Policy: policy, Pages: pages, Loads: 1,
		Tracer: tracer,
	})
	if err != nil {
		return err
	}
	fmt.Printf("web %s over %s, %d pages\n", policy, traceNm, pages)
	fmt.Printf("  mean PLT     %v\n", r.MeanPLT.Round(time.Millisecond))
	fmt.Printf("  p95 PLT      %.0f ms\n", r.PLT.Percentile(95))
	fmt.Printf("  background   %d uploads, %d downloads\n", r.BgUploads, r.BgDownloads)
	report.AddMetric("plt_mean", r.PLT.Mean(), "ms")
	report.AddMetric("plt_p95", r.PLT.Percentile(95), "ms")
	report.SketchDist("plt_ms", &r.PLT)
	return nil
}

func runABR(seed int64, dur time.Duration, policy, traceNm string) error {
	r, err := core.RunABR(core.ABRConfig{Seed: seed, Media: dur, Trace: traceNm, Policy: policy})
	if err != nil {
		return err
	}
	fmt.Printf("abr %s over %s, %v media\n", policy, traceNm, dur)
	fmt.Printf("  startup      %v\n", r.StartupDelay.Round(time.Millisecond))
	fmt.Printf("  rebuffer     %v in %d events\n", r.RebufferTime.Round(time.Millisecond), r.RebufferEvents)
	fmt.Printf("  bitrate      %.2f Mbps mean, %d switches\n", r.MeanBitrate/1e6, r.Switches)
	fmt.Printf("  played       %v of %v\n", r.Played.Round(time.Second), dur)
	return nil
}

func runGame(seed int64, dur time.Duration, policy, traceNm string) error {
	r, err := core.RunGame(core.GameConfig{Seed: seed, Duration: dur, Trace: traceNm, Policy: policy})
	if err != nil {
		return err
	}
	fmt.Printf("game %s over %s for %v\n", policy, traceNm, dur)
	fmt.Printf("  input→display p50=%.0fms p95=%.0fms max=%.0fms\n",
		r.InputToDisplay.Percentile(50), r.InputToDisplay.Percentile(95), r.InputToDisplay.Max())
	fmt.Printf("  frames       %d shown, %d lost\n", r.FramesShown, r.FramesLost)
	return nil
}
