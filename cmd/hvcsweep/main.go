// Command hvcsweep runs experiment grids through the parallel sweep
// engine (internal/sweep): it expands a grid spec into independent
// (cell, seed) simulation jobs, fans them across a worker pool, and
// prints per-cell statistics (mean, std, median, 95% CI) aggregated in
// grid order — the output is byte-identical for any -workers value.
//
// The grid spec is a space-separated key=value list; list values are
// comma-separated and seeds take either a count or a range:
//
//	hvcsweep -spec "exp=bulk cc=cubic,bbr,vegas,vivace policy=dchannel,embb-only seeds=1..5 dur=15s"
//	hvcsweep -spec "exp=video policy=embb-only,dchannel,priority trace=lowband-driving seeds=10"
//	hvcsweep -spec "exp=web pages=6 loads=2 trace=lowband-driving,mmwave-driving seeds=1..3"
//	hvcsweep -spec "exp=abr trace=mmwave-driving seeds=1..5 dur=60s"
//	hvcsweep -spec "exp=outage policy=embb-only,redundant seeds=1..5 dur=8s fault=outage:ch=embb,at=2s,dur=1s"
//	hvcsweep -spec "exp=arena flows=4 mix=cubic,copa,bbr,reno join=1s rttspread=20ms seeds=1..5 dur=15s"
//
// The fault key (exp=outage only) takes an internal/fault scenario —
// space-free by construction, so it embeds in the spec; omitted, it
// defaults to two eMBB blackouts scaled to dur. The flows/mix/join/
// rttspread keys (exp=arena only) shape the contention run: competitor
// count, weighted CCA mix (cc:weight, assigned cyclically), join
// stagger, and RTT heterogeneity. DESIGN.md "Spec grammars" lists every
// key, kind and default; a key that does not apply to the experiment,
// or an explicit dur=0s, is a usage error (exit 2, nothing on stdout).
//
// The default grid is the paper's Figure 1a (four CCAs under DChannel
// steering vs eMBB-only) over five seeds.
//
// Results are cached on disk under -cache (default .hvcsweep), keyed
// by a content hash of the canonicalized cell config — experiment,
// CCA tuning constants, policy parameters, trace, seed, duration —
// plus the module build version. A repeated sweep is all cache hits;
// widening a grid re-runs only the new cells. Delete the cache
// directory to force recomputation; changing any simulator constant
// already invalidates affected entries via the config fingerprint.
//
// Stdout carries only the deterministic result table (or CSV with
// -format csv); progress and timing go to stderr. -json/-csv
// additionally write the hvc-sweep-report/v1 bundle and the tidy CSV
// matrix to files.
//
// With -fleet, -spec is instead an internal/fleet population spec and
// the run delegates to the fleet harness (the engine cmd/hvcfleet
// fronts): N derived UE sessions, sketch aggregation, and an
// hvc-fleet-report/v1 bundle from -json. -workers and -progress keep
// their meanings; the sweep-only knobs (cache, format, csv, quick) do
// not apply:
//
//	hvcsweep -fleet -spec "ues=2000 mix=bulk:2,web:1 dur=1s" -progress 2s
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"text/tabwriter"
	"time"

	"hvc/internal/fleet"
	"hvc/internal/prof"
	"hvc/internal/sketch"
	"hvc/internal/sweep"
	"hvc/internal/telemetry"
)

const defaultSpec = "exp=bulk cc=cubic,bbr,vegas,vivace policy=dchannel,embb-only seeds=1..5 dur=15s"

func main() {
	profile := prof.Register()
	var (
		specF    = flag.String("spec", defaultSpec, "grid spec (space-separated key=value; see package doc)")
		workers  = flag.Int("workers", 0, "worker goroutines; 0 means GOMAXPROCS")
		cache    = flag.String("cache", ".hvcsweep", "result cache directory")
		noCache  = flag.Bool("no-cache", false, "disable the result cache entirely")
		quick    = flag.Bool("quick", false, "shrink durations/corpus for smoke testing (5s runs, 2 pages x 1 load)")
		format   = flag.String("format", "table", "stdout format: table or csv")
		csvF     = flag.String("csv", "", "also write the tidy CSV matrix to this file")
		jsonF    = flag.String("json", "", "also write the hvc-sweep-report/v1 JSON bundle to this file")
		verbose  = flag.Bool("v", false, "report per-job progress on stderr")
		progress = flag.Duration("progress", 0, "emit hvc-progress/v1 snapshot lines (jobs, cache hits, live metric quantiles) to stderr at this interval; 0 disables")
		fleetF   = flag.Bool("fleet", false, "treat -spec as an internal/fleet population spec and run the fleet harness")
	)
	flag.Parse()
	if err := profile.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
		os.Exit(1)
	}

	if *fleetF {
		specSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "spec" {
				specSet = true
			}
		})
		fleetSpec := *specF
		if !specSet {
			fleetSpec = "" // fleet defaults, not the sweep grid default
		}
		runFleet(fleetSpec, *workers, *jsonF, *progress)
		if err := profile.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "hvcsweep: profile: %v\n", err)
			os.Exit(1)
		}
		return
	}

	spec, err := sweep.ParseSpec(*specF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
		os.Exit(2)
	}
	if *quick {
		if spec.Exp == sweep.ExpWeb {
			spec.Pages, spec.Loads = 2, 1
		} else if spec.Dur > 5*time.Second {
			spec.Dur = 5 * time.Second
		}
	}

	opt := sweep.Options{Workers: *workers, CacheDir: *cache, Registry: telemetry.NewRegistry()}
	if *noCache {
		opt.CacheDir = ""
	}
	if *verbose {
		opt.Progress = func(done, total, cached int) {
			fmt.Fprintf(os.Stderr, "hvcsweep: %d/%d jobs (%d cached)\n", done, total, cached)
		}
	}
	stopProgress := func() {}
	if *progress > 0 {
		// The snapshot emitter samples counters the engine's progress
		// hook maintains plus the live metric sketches. It only observes:
		// the result table is byte-identical with or without it.
		opt.Sketch = sketch.NewGroup()
		var (
			mu                  sync.Mutex
			done, total, cached int
		)
		prev := opt.Progress
		opt.Progress = func(d, t, c int) {
			mu.Lock()
			done, total, cached = d, t, c
			mu.Unlock()
			if prev != nil {
				prev(d, t, c)
			}
		}
		stopProgress = telemetry.StartProgress(os.Stderr, *progress, func() telemetry.Progress {
			mu.Lock()
			d, t, c := done, total, cached
			mu.Unlock()
			return telemetry.Progress{
				Done: d, Total: t, Cached: c,
				Sketches: telemetry.ProgressSketches(opt.Sketch.Snapshot()),
			}
		})
	}

	start := time.Now()
	m, err := sweep.Run(spec, opt)
	stopProgress()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
		os.Exit(1)
	}

	switch *format {
	case "table":
		if err := printTable(m); err != nil {
			fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
			os.Exit(1)
		}
	case "csv":
		if err := m.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "hvcsweep: unknown -format %q (want table or csv)\n", *format)
		os.Exit(2)
	}

	writeFile := func(path string, write func(*os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
			os.Exit(1)
		}
	}
	writeFile(*csvF, func(f *os.File) error { return m.WriteCSV(f) })
	writeFile(*jsonF, func(f *os.File) error { return m.WriteJSON(f) })

	executed, cached := counterTotals(opt.Registry)
	fmt.Fprintf(os.Stderr, "hvcsweep: %d jobs (%d executed, %d cached) across %d cells in %v\n",
		m.Jobs, executed, cached, len(m.Cells), time.Since(start).Round(time.Millisecond))
	if err := profile.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "hvcsweep: profile: %v\n", err)
		os.Exit(1)
	}
}

// runFleet is -fleet mode: the fleet harness behind the sweep CLI's
// flags. Same output contract as cmd/hvcfleet — deterministic table
// on stdout, hvc-fleet-report/v1 from -json, progress and timing on
// stderr.
func runFleet(specStr string, workers int, jsonPath string, progress time.Duration) {
	spec, err := fleet.ParseSpec(specStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
		os.Exit(2)
	}
	opt := fleet.Options{Workers: workers}
	stopProgress := func() {}
	if progress > 0 {
		opt.Sketch = sketch.NewGroup()
		var (
			mu          sync.Mutex
			done, total int
		)
		opt.Progress = func(d, t int) {
			mu.Lock()
			done, total = d, t
			mu.Unlock()
		}
		stopProgress = telemetry.StartProgress(os.Stderr, progress, func() telemetry.Progress {
			mu.Lock()
			d, t := done, total
			mu.Unlock()
			return telemetry.Progress{
				Done: d, Total: t,
				Sketches: telemetry.ProgressSketches(opt.Sketch.Snapshot()),
			}
		})
	}
	start := time.Now()
	res, err := fleet.Run(spec, opt)
	stopProgress()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
		os.Exit(1)
	}
	if err := res.WriteTable(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
		os.Exit(1)
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err == nil {
			err = res.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hvcsweep: %v\n", err)
			os.Exit(1)
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "hvcsweep: fleet %d UEs in %v (%.1f UEs/sec)\n",
		res.UEs, elapsed.Round(time.Millisecond), float64(res.UEs)/elapsed.Seconds())
}

// counterTotals pulls the executed/cached split back out of the
// engine's progress counters.
func counterTotals(reg *telemetry.Registry) (executed, cached int) {
	for _, r := range reg.Snapshot() {
		if r.Name != "sweep/jobs" {
			continue
		}
		switch r.Labels["result"] {
		case "executed":
			executed = int(r.Value)
		case "cached":
			cached = int(r.Value)
		}
	}
	return executed, cached
}

// printTable renders the matrix as an aligned, deterministic table:
// one block per grid cell, one row per metric.
func printTable(m *sweep.Matrix) error {
	fmt.Printf("spec: %s\n", m.Spec)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, c := range m.Cells {
		fmt.Fprintf(tw, "\n%s\n", cellTitle(c))
		fmt.Fprintf(tw, "  metric\tmean\t±ci95\tmedian\tstd\t[min, max]\tn\n")
		for _, met := range c.Metrics {
			fmt.Fprintf(tw, "  %s\t%.4g\t%.4g\t%.4g\t%.4g\t[%.4g, %.4g]\t%d\n",
				met.Name, met.Mean, met.CI95, met.Median, met.Std, met.Min, met.Max, met.N)
		}
	}
	return tw.Flush()
}

func cellTitle(c sweep.Cell) string {
	s := "exp=" + c.Exp
	if c.CC != "" {
		s += " cc=" + c.CC
	}
	return s + " policy=" + c.Policy + " trace=" + c.Trace + " seeds=" + c.Seeds
}
