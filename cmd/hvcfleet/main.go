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
//
// The -json and profile files are created before the run; if one cannot
// be, or the run fails, hvcfleet exits 1 with nothing on stdout and
// removes them.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hvc/internal/cli"
	"hvc/internal/fleet"
	"hvc/internal/telemetry"
)

const defaultSpec = "ues=1000 seed=1"

func main() {
	out := cli.New("hvcfleet")
	out.Profiles()
	var (
		specF    = flag.String("spec", defaultSpec, "fleet spec (space-separated key=value; see package doc)")
		workers  = flag.Int("workers", 0, "worker goroutines; 0 means GOMAXPROCS")
		shard    = flag.Int("shard", 0, "UEs per pool job; 0 means the package default")
		jsonF    = flag.String("json", "", "also write the hvc-fleet-report/v1 JSON bundle to this file")
		progress = flag.Duration("progress", 0, "emit hvc-progress/v1 snapshot lines (UEs done, UEs/sec, live metric quantiles) to stderr at this interval; 0 disables")
	)
	flag.Parse()

	spec, err := fleet.ParseSpec(*specF)
	if err != nil {
		out.Usage(err)
	}
	jsonOut := out.Create(*jsonF)
	out.Start()

	var meter *telemetry.Meter
	stopProgress := func() {}
	if *progress > 0 {
		meter = telemetry.NewMeter()
		stopProgress = telemetry.StartProgress(os.Stderr, *progress, meter)
	}
	start := time.Now()
	res, err := fleet.Run(spec, fleet.Options{Workers: *workers, Shard: *shard, Meter: meter})
	stopProgress()
	if err == nil && jsonOut != nil {
		err = res.WriteJSON(jsonOut)
	}
	if err != nil {
		out.Fail(err)
	}
	out.Close()
	if err := res.WriteTable(os.Stdout); err != nil {
		out.Fail(err)
	}

	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "hvcfleet: %d UEs in %v (%.1f UEs/sec)\n",
		res.UEs, elapsed.Round(time.Millisecond), float64(res.UEs)/elapsed.Seconds())
}
