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
// -quick shortens the spec before its defaults are filled in, so the
// spec printed is the one run: the default outage schedule scales to
// the shortened dur, and arena joins that no longer fit are a usage
// error.
//
// The default grid is the paper's Figure 1a (four CCAs under DChannel
// steering vs eMBB-only) over five seeds.
//
// Results are cached on disk under -cache (default .hvcsweep), keyed
// by each cell at its seed plus the SHA-256 of the hvcsweep binary
// itself. A repeated sweep is all cache hits, and widening a grid
// re-runs only the new cells. A rebuilt binary that differs in any
// byte — any edited constant, algorithm or dependency — recomputes
// every cell; an identical rebuild of the same tree hits. If the
// binary cannot be read, hvcsweep exits 1 and -no-cache runs without
// the cache. The directory holds one build at a time: a run first
// removes every other build's entries. It is always safe to delete.
//
// Stdout carries only the deterministic result table (or CSV with
// -format csv); progress and timing go to stderr. -json/-csv
// additionally write the hvc-sweep-report/v1 bundle and the tidy CSV
// matrix to files. An unknown -format exits 2 before simulating. Output
// and profile files are created before the run; if one cannot be, or
// the run fails, hvcsweep exits 1 with nothing on stdout and removes
// them.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"hvc/internal/cli"
	"hvc/internal/sweep"
	"hvc/internal/telemetry"
)

const defaultSpec = "exp=bulk cc=cubic,bbr,vegas,vivace policy=dchannel,embb-only seeds=1..5 dur=15s"

func main() {
	out := cli.New("hvcsweep")
	out.Profiles()
	var (
		specF    = flag.String("spec", defaultSpec, "grid spec (space-separated key=value; see package doc)")
		workers  = flag.Int("workers", 0, "worker goroutines; 0 means GOMAXPROCS")
		cache    = flag.String("cache", ".hvcsweep", "result cache directory")
		noCache  = flag.Bool("no-cache", false, "disable the result cache entirely")
		quick    = flag.Bool("quick", false, "shrink durations/corpus for smoke testing (5s runs, 2 pages x 1 load)")
		format   = flag.String("format", "table", "stdout format: table or csv")
		csvF     = flag.String("csv", "", "also write the tidy CSV matrix to this file")
		jsonF    = flag.String("json", "", "also write the hvc-sweep-report/v1 JSON bundle to this file")
		progress = flag.Duration("progress", 0, "emit hvc-progress/v1 snapshot lines (jobs, cache hits, live metric quantiles) to stderr at this interval; 0 disables")
	)
	flag.Parse()

	parse := sweep.ParseSpec
	if *quick {
		parse = sweep.ParseQuickSpec
	}
	spec, err := parse(*specF)
	if err != nil {
		out.Usage(err)
	}
	if *format != "table" && *format != "csv" {
		out.Usage(fmt.Errorf("unknown -format %q (want table or csv)", *format))
	}
	csvOut, jsonOut := out.Create(*csvF), out.Create(*jsonF)
	out.Start()

	meter := telemetry.NewMeter()
	opt := sweep.Options{Workers: *workers, CacheDir: *cache, Meter: meter}
	if *noCache {
		opt.CacheDir = ""
	}
	stopProgress := func() {}
	if *progress > 0 {
		stopProgress = telemetry.StartProgress(os.Stderr, *progress, meter)
	}
	start := time.Now()
	m, err := sweep.Run(spec, opt)
	stopProgress()
	if err == nil && csvOut != nil {
		err = m.WriteCSV(csvOut)
	}
	if err == nil && jsonOut != nil {
		err = m.WriteJSON(jsonOut)
	}
	if err != nil {
		out.Fail(err)
	}
	out.Close()

	if *format == "csv" {
		err = m.WriteCSV(os.Stdout)
	} else {
		err = printTable(m)
	}
	if err != nil {
		out.Fail(err)
	}
	p := meter.Progress()
	fmt.Fprintf(os.Stderr, "hvcsweep: %d jobs (%d executed, %d cached) across %d cells in %v\n",
		m.Jobs, p.Done-p.Cached, p.Cached, len(m.Cells), time.Since(start).Round(time.Millisecond))
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
