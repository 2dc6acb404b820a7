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
	"time"

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
	var (
		workload  = flag.String("workload", "bulk", "bulk, video, web, abr, or game")
		ccName    = flag.String("cc", "cubic", "bulk: congestion control (cubic, reno, bbr, vegas, vivace, copa, hvc-*)")
		policy    = flag.String("policy", core.PolicyDChannel, "steering policy (embb-only, dchannel, priority, dchannel+priority, objectmap, redundant)")
		traceNm   = flag.String("trace", "fixed", "eMBB trace (fixed, lowband-stationary, lowband-walking, lowband-driving, mmwave-driving)")
		dur       = flag.Duration("dur", 30*time.Second, "run duration (abr: media duration; not read by web)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		pages     = flag.Int("pages", 5, "web: pages to load")
		capFile   = flag.String("capture", "", "bulk: write per-channel time series CSV to this file")
		report    = flag.String("report", "", "write a JSON run report to this file (bulk/video/web)")
		traceFile = flag.String("tracefile", "", "write a Chrome trace-event file (Perfetto-loadable) to this file (bulk/video/web)")
	)
	flag.Parse()

	fail := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "hvcsim: %v\n", err)
		os.Exit(code)
	}
	if err := checkUsage(*workload, *ccName, *policy, *traceNm, *dur, *pages); err != nil {
		fail(2, err)
	}
	obs, err := newObserver(*workload, *seed, *report, *traceFile, *capFile)
	if err != nil {
		fail(1, err)
	}
	obs.config("workload", *workload)
	obs.config("policy", *policy)
	obs.config("trace", *traceNm)

	switch *workload {
	case "bulk":
		obs.config("cc", *ccName)
		obs.config("dur", dur.String())
		err = runBulk(*seed, *dur, *ccName, *policy, *traceNm, obs)
	case "video":
		obs.config("dur", dur.String())
		err = runVideo(*seed, *dur, *policy, *traceNm, obs)
	case "web":
		obs.config("pages", fmt.Sprint(*pages))
		err = runWeb(*seed, *policy, *traceNm, *pages, obs)
	case "abr":
		err = runABR(*seed, *dur, *policy, *traceNm)
	case "game":
		err = runGame(*seed, *dur, *policy, *traceNm)
	}
	if err == nil {
		err = obs.finish()
	}
	if err != nil {
		obs.discard()
		fail(1, err)
	}
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

// observer bundles the optional outputs of one scenario: the tracer
// and its trace file, the run report and its file, and the bulk
// capture file. All files exist before the run starts. The zero
// observer (no output flags) is fully inert.
type observer struct {
	tracer                         *telemetry.Tracer
	report                         *telemetry.Report
	reportFile, traceFile, capFile *os.File
	files                          []*os.File // the ones created
}

func newObserver(workload string, seed int64, reportPath, tracePath, capPath string) (*observer, error) {
	o := &observer{}
	for _, out := range []struct {
		path string
		f    **os.File
	}{{reportPath, &o.reportFile}, {tracePath, &o.traceFile}, {capPath, &o.capFile}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			o.discard()
			return nil, err
		}
		*out.f = f
		o.files = append(o.files, f)
	}
	if reportPath == "" && tracePath == "" {
		return o, nil
	}
	var sinks []telemetry.Sink
	if o.traceFile != nil {
		sinks = append(sinks, telemetry.NewChromeTrace(o.traceFile))
	}
	o.tracer = telemetry.New(sinks...)
	if o.reportFile != nil {
		o.report = telemetry.NewReport(workload, seed)
	}
	return o, nil
}

// discard closes and removes every output file, so a failed run
// leaves no partial output behind.
func (o *observer) discard() {
	for _, f := range o.files {
		f.Close()
		os.Remove(f.Name())
	}
}

func (o *observer) config(key, value string) {
	if o.report != nil {
		o.report.SetConfig(key, value)
	}
}

func (o *observer) metric(name string, v float64, unit string) {
	if o.report != nil {
		o.report.AddMetric(name, v, unit)
	}
}

// finish writes the report, flushes the trace and closes every output
// file.
func (o *observer) finish() error {
	if o.report != nil {
		o.report.AttachCounters(o.tracer.Registry())
		if err := o.report.WriteJSON(o.reportFile); err != nil {
			return err
		}
	}
	if err := o.tracer.Close(); err != nil {
		return err
	}
	for _, f := range o.files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func runBulk(seed int64, dur time.Duration, ccName, policy, traceNm string, obs *observer) error {
	cfg := core.BulkConfig{
		Seed: seed, Duration: dur, CC: ccName, Policy: policy, Trace: traceNm,
		Tracer: obs.tracer,
	}
	if obs.capFile != nil {
		cfg.CaptureEvery = 100 * time.Millisecond
	}
	r, err := core.RunBulk(cfg)
	if err != nil {
		return err
	}
	if obs.capFile != nil {
		if err := r.Capture.WriteCSV(obs.capFile); err != nil {
			return err
		}
		fmt.Printf("  capture      wrote %s\n", obs.capFile.Name())
	}
	fmt.Printf("bulk %s/%s over %s for %v\n", ccName, policy, traceNm, dur)
	fmt.Printf("  goodput      %.2f Mbps\n", r.Mbps)
	fmt.Printf("  retransmits  %d (rtos %d)\n", r.Retransmits, r.RTOs)
	fmt.Printf("  rtt          %s\n", summarizeRTT(r))
	fmt.Printf("  channels     %s\n", core.SortedCounts(r.ChannelShare))
	obs.metric("goodput", r.Mbps, "Mbps")
	obs.metric("retransmits", float64(r.Retransmits), "")
	obs.metric("rtos", float64(r.RTOs), "")
	obs.report.SketchSeries("rtt_ms", &r.RTT)
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

func runVideo(seed int64, dur time.Duration, policy, traceNm string, obs *observer) error {
	r, err := core.RunVideo(core.VideoConfig{Seed: seed, Duration: dur, Trace: traceNm, Policy: policy, Tracer: obs.tracer})
	if err != nil {
		return err
	}
	fmt.Printf("video %s over %s for %v\n", policy, traceNm, dur)
	fmt.Printf("  frames       %d sent, %d decoded, %d frozen\n", r.Sent, r.Decoded, r.Frozen)
	fmt.Printf("  latency      p50=%.0fms p95=%.0fms p99=%.0fms max=%.0fms\n",
		r.Latency.Percentile(50), r.Latency.Percentile(95), r.Latency.Percentile(99), r.Latency.Max())
	fmt.Printf("  ssim         mean=%.3f p5=%.3f\n", r.SSIM.Mean(), r.SSIM.Percentile(5))
	obs.metric("latency_p95", r.Latency.Percentile(95), "ms")
	obs.metric("ssim_mean", r.SSIM.Mean(), "")
	obs.metric("frozen", float64(r.Frozen), "frames")
	obs.report.SketchDist("latency_ms", &r.Latency)
	return nil
}

func runWeb(seed int64, policy, traceNm string, pages int, obs *observer) error {
	r, err := core.RunWeb(core.WebConfig{
		Seed: seed, Trace: traceNm, Policy: policy, Pages: pages, Loads: 1,
		Tracer: obs.tracer,
	})
	if err != nil {
		return err
	}
	fmt.Printf("web %s over %s, %d pages\n", policy, traceNm, pages)
	fmt.Printf("  mean PLT     %v\n", r.MeanPLT.Round(time.Millisecond))
	fmt.Printf("  p95 PLT      %.0f ms\n", r.PLT.Percentile(95))
	fmt.Printf("  background   %d uploads, %d downloads\n", r.BgUploads, r.BgDownloads)
	obs.metric("plt_mean", r.PLT.Mean(), "ms")
	obs.metric("plt_p95", r.PLT.Percentile(95), "ms")
	obs.report.SketchDist("plt_ms", &r.PLT)
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
