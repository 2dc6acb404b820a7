// Command hvcbench regenerates every table and figure in the paper's
// evaluation (see DESIGN.md §3 for the experiment index):
//
//	hvcbench -exp fig1a        CCA throughput under DChannel steering
//	hvcbench -exp fig1b        BBR per-ack RTT time series
//	hvcbench -exp fig2         real-time SVC video latency/SSIM
//	hvcbench -exp table1       web PLT with background flows
//	hvcbench -exp ablation-cc  HVC-aware congestion control (§3.2)
//	hvcbench -exp ablation-mptcp MPTCP-style aggregation vs steering (§1)
//	hvcbench -exp ablation-mlo Wi-Fi MLO redundancy (§2.2/§3.1)
//	hvcbench -exp ablation-cost budgeted cISP-style path (§3.1)
//	hvcbench -exp ablation-beta DChannel reward/cost β sweep
//	hvcbench -exp ablation-tail end-of-message acceleration (§3.2)
//	hvcbench -exp ablation-ians object-granularity (IANS) baseline (§1)
//	hvcbench -exp ablation-has  adaptive streaming comparison
//	hvcbench -exp ablation-tsn  wireless TSN vs best-effort Wi-Fi (§2.2)
//	hvcbench -exp outage       steering policies through channel blackouts (§2.1)
//	hvcbench -exp arena        multi-flow CCA contention: shares, Jain, convergence
//	hvcbench -exp all          everything above
//
// The experiment registry itself lives in internal/experiments; this
// command adds flag parsing, report/trace sinks, and the multi-seed
// loop. With -seeds N the seeds run in parallel across GOMAXPROCS
// workers (each simulation is single-threaded and self-contained) and
// their outputs print in seed order, so the bytes match a serial run;
// -report/-trace/-events fall back to serial execution because their
// sinks span runs. For grid sweeps with caching and per-cell
// statistics, see cmd/hvcsweep.
//
// -report writes a machine-readable JSON run report (schema
// hvc-run-report/v1: config, seed, headline metrics, counter
// snapshot); -trace writes a Chrome trace-event file loadable in
// Perfetto (ui.perfetto.dev) with one track per channel and flow;
// -events writes the raw event stream as JSONL. All three are
// deterministic per seed. They and the profile files are created
// before the first experiment runs; if one cannot be, hvcbench exits 1
// with nothing on stdout, and a failed run removes them. An unknown
// -exp, a -seeds below 1, a -fault that does not parse, or a -fault
// when no selected experiment reads it (only outage does) exits 2
// before simulating.
//
// Absolute numbers come from a simulator, not the authors' testbed;
// the shapes (who wins, by what factor, where crossovers fall) are the
// reproduction target. EXPERIMENTS.md records paper-vs-measured.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"hvc/internal/cli"
	"hvc/internal/experiments"
	"hvc/internal/fault"
	"hvc/internal/pool"
)

func main() {
	out := cli.New("hvcbench")
	out.Profiles()
	var (
		exp = flag.String("exp", "all",
			"experiment to run ("+strings.Join(experiments.Order(), ", ")+", all)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		seeds   = flag.Int("seeds", 1, "repeat headline experiments over this many consecutive seeds (in parallel unless -report/-trace/-events)")
		quick   = flag.Bool("quick", false, "shorter runs and smaller corpora (for smoke testing)")
		cdf     = flag.Bool("cdf", false, "dump full CDFs/time series instead of summaries")
		faultF  = flag.String("fault", "", "fault scenario for -exp outage (internal/fault grammar; empty keeps the default blackout schedule)")
		report  = flag.String("report", "", "write a JSON run report (config, metrics, counters) to this file")
		traceF  = flag.String("trace", "", "write a Chrome trace-event file (Perfetto-loadable) to this file")
		eventsF = flag.String("events", "", "write the raw telemetry event stream as JSONL to this file")
	)
	flag.Parse()

	var names []string
	if *exp == "all" {
		names = experiments.Order()
	} else if experiments.Valid(*exp) {
		names = []string{*exp}
	} else {
		out.Usage(fmt.Errorf("unknown experiment %q", *exp))
	}
	if *seeds < 1 {
		out.Usage(fmt.Errorf("-seeds must be at least 1, got %d", *seeds))
	}
	if *faultF != "" {
		if !slices.Contains(names, "outage") {
			out.Usage(fmt.Errorf("-fault is read by -exp outage only, not %s", *exp))
		}
		if _, err := fault.ParseSpec(*faultF); err != nil {
			out.Usage(fmt.Errorf("-fault: %v", err))
		}
	}

	cfg := experiments.FullScale()
	if *quick {
		cfg = experiments.QuickScale()
	}
	e := experiments.Env{Scale: cfg, CDF: *cdf, Out: os.Stdout, Fault: *faultF}
	e.Tracer, e.Report = out.Telemetry(strings.Join(names, ","), *seed, *report, *traceF, *eventsF)
	out.Start()
	e.Report.SetConfig("seeds", fmt.Sprint(*seeds))
	e.Report.SetConfig("quick", fmt.Sprint(*quick))
	e.Report.SetConfig("bulk_dur", cfg.BulkDur.String())
	e.Report.SetConfig("video_dur", cfg.VideoDur.String())
	e.Report.SetConfig("pages", fmt.Sprint(cfg.Pages))
	e.Report.SetConfig("loads", fmt.Sprint(cfg.Loads))
	if *faultF != "" {
		e.Report.SetConfig("fault", *faultF)
	}

	// The tracer's sinks and the report span runs, so they pin
	// execution to one goroutine; without them, seeds fan out across
	// the worker pool and print in seed order — identical bytes,
	// multi-core wall clock.
	parallelSeeds := *seeds > 1 && e.Tracer == nil && e.Report == nil

	for _, name := range names {
		if parallelSeeds {
			outs, err := pool.Map(*seeds, 0, func(i int) (*bytes.Buffer, error) {
				env := e
				env.Seed = *seed + int64(i)
				env.Prefix = fmt.Sprintf("%s/seed%d/", name, env.Seed)
				var buf bytes.Buffer
				env.Out = &buf
				return &buf, experiments.Run(name, env)
			})
			if err != nil {
				var pe *pool.Error
				if errors.As(err, &pe) {
					err = fmt.Errorf("seed %d: %v", *seed+int64(pe.Index), pe.Err)
				}
				out.Fail(fmt.Errorf("%s: %v", name, err))
			}
			for i, buf := range outs {
				fmt.Printf("--- seed %d ---\n", *seed+int64(i))
				os.Stdout.Write(buf.Bytes())
			}
			continue
		}
		for s := 0; s < *seeds; s++ {
			if *seeds > 1 {
				fmt.Printf("--- seed %d ---\n", *seed+int64(s))
			}
			e.Seed = *seed + int64(s)
			e.Prefix = name + "/"
			if *seeds > 1 {
				e.Prefix = fmt.Sprintf("%s/seed%d/", name, e.Seed)
			}
			if err := experiments.Run(name, e); err != nil {
				out.Fail(fmt.Errorf("%s: %v", name, err))
			}
		}
	}

	out.Close()
}
