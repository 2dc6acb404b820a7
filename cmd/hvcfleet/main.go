// Command hvcfleet simulates a fleet of independent UE sessions and
// reports population-level metric distributions: the operator's view
// of heterogeneous virtual channels, aggregated from thousands of
// deterministic per-UE simulations through mergeable sketches
// (internal/fleet).
//
// The fleet spec is a space-separated key=value list:
//
//	hvcfleet -spec "ues=10000 seed=1 mix=bulk:2,web:1 cc=bbr policy=dchannel,embb-only dur=2s"
//	hvcfleet -spec "ues=1000 mix=video:1 policy=dchannel trace=lowband-driving,mmwave-driving dur=4s"
//	hvcfleet -spec "ues=500 fault=outage:ch=embb,at=10s,dur=2s stagger=30s" -progress 2s
//
// DESIGN.md "Spec grammars" lists every key, kind and default; omitted
// keys default, and an explicit dur=0s or stagger=0s is a usage error
// (exit 2, nothing on stdout) rather than a request for the default.
//
// Each UE's workload, steering policy, trace realization, seed, and
// start offset derive by pure hashing from (fleet seed, UE index), so
// the run is deterministic end to end: stdout's table and the -json
// report are byte-identical for any -workers or -shard value, with or
// without -progress. Progress lines (hvc-progress/v1, including a live
// UEs/sec rate and metric quantiles) go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"hvc/internal/fleet"
	"hvc/internal/prof"
	"hvc/internal/sketch"
	"hvc/internal/telemetry"
)

const defaultSpec = "ues=1000 seed=1"

func main() {
	profile := prof.Register()
	var (
		specF    = flag.String("spec", defaultSpec, "fleet spec (space-separated key=value; see package doc)")
		workers  = flag.Int("workers", 0, "worker goroutines; 0 means GOMAXPROCS")
		shard    = flag.Int("shard", 0, "UEs per pool job; 0 means the package default")
		jsonF    = flag.String("json", "", "also write the hvc-fleet-report/v1 JSON bundle to this file")
		progress = flag.Duration("progress", 0, "emit hvc-progress/v1 snapshot lines (UEs done, UEs/sec, live metric quantiles) to stderr at this interval; 0 disables")
	)
	flag.Parse()
	if err := profile.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "hvcfleet: %v\n", err)
		os.Exit(1)
	}

	spec, err := fleet.ParseSpec(*specF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvcfleet: %v\n", err)
		os.Exit(2)
	}

	opt := fleet.Options{Workers: *workers, Shard: *shard}
	stopProgress := func() {}
	if *progress > 0 {
		// The snapshot emitter samples the completion counters and the
		// live sketches fed by completed shards. It only observes: the
		// table and report are byte-identical with or without it.
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
		stopProgress = telemetry.StartProgress(os.Stderr, *progress, func() telemetry.Progress {
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
		fmt.Fprintf(os.Stderr, "hvcfleet: %v\n", err)
		os.Exit(1)
	}

	if err := res.WriteTable(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hvcfleet: %v\n", err)
		os.Exit(1)
	}
	if *jsonF != "" {
		f, err := os.Create(*jsonF)
		if err == nil {
			err = res.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hvcfleet: %v\n", err)
			os.Exit(1)
		}
	}

	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "hvcfleet: %d UEs in %v (%.1f UEs/sec)\n",
		res.UEs, elapsed.Round(time.Millisecond), float64(res.UEs)/elapsed.Seconds())
	if err := profile.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "hvcfleet: profile: %v\n", err)
		os.Exit(1)
	}
}
