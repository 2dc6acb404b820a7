// Command hvcchaos soaks the simulator under randomized fault
// schedules with the runtime invariant layer (internal/invariant)
// armed: it generates fault schedules × experiments × seeds from a
// seeded meta-RNG, runs every trial across a worker pool, and — on a
// violation — shrinks the failing trial to a minimal counterexample
// and prints it as a sweep cell line: the line of one run, which
// hvcsweep -spec also runs.
//
//	hvcchaos -jobs 256 -metaseed 1                  # soak
//	hvcchaos -budget 90s -metaseed 1 -jobs 100000   # CI: bounded soak
//	hvcchaos -repro "exp=outage policy=embb-only trace=fixed seed=7 dur=750ms reliable=true fault=outage:ch=embb,at=99ms,dur=376ms"
//
// -repro takes any sweep spec of one cell at one seed (see
// sweep.ParseCell), including the lines earlier soaks printed; a grid
// or a seed range is a usage error.
//
// The soak is deterministic: the same -metaseed yields the same job
// list and, under any -workers value, the same first finding. A
// finding exits 1; a clean soak exits 0.
//
// Every trial runs with a flight recorder on its telemetry stream: a
// finding (and a failed -repro) prints an hvc-flight/v1 dump of the
// last -flight events leading up to the violation, the violation
// itself appended as the final line. -progress emits machine-readable
// hvc-progress/v1 snapshot lines (trials done, trial-time quantiles)
// to stderr at the given interval without perturbing the soak.
//
// -seed-bug reintroduces a named, deliberately re-armed historical bug
// (see invariant.ParseBug) so the detection and shrinking pipeline can
// be demonstrated — and CI can prove it still works — end to end:
//
//	hvcchaos -seed-bug dup-deliver -metaseed 1 -jobs 64
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"hvc/internal/chaos"
	"hvc/internal/cli"
	"hvc/internal/flight"
	"hvc/internal/invariant"
	"hvc/internal/sweep"
	"hvc/internal/telemetry"
)

func main() {
	out := cli.New("hvcchaos")
	var (
		jobs     = flag.Int("jobs", 256, "number of trials to generate")
		metaseed = flag.Int64("metaseed", 1, "meta-RNG seed; the whole soak is a function of it")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		dur      = flag.Duration("dur", 4*time.Second, "virtual duration of each trial")
		budget   = flag.Duration("budget", 0, "wall-clock budget; 0 = run all jobs")
		repro    = flag.String("repro", "", "replay one sweep cell line (one cell at one seed) instead of soaking")
		seedBug  = flag.String("seed-bug", "", "arm a named historical bug (e.g. dup-deliver)")
		verbose  = flag.Bool("v", false, "log per-batch progress to stderr")
		progress = flag.Duration("progress", 0, "emit hvc-progress/v1 snapshot lines (trials done, trial-time quantiles) to stderr at this interval; 0 disables")
		depth    = flag.Int("flight", flight.DefaultDepth, "flight-recorder depth: last-N telemetry events dumped with a finding or failed repro")
	)
	flag.Parse()

	if *jobs < 1 {
		out.Usage(fmt.Errorf("-jobs must be at least 1, got %d", *jobs))
	}
	if *dur <= 0 {
		out.Usage(fmt.Errorf("-dur must be positive, got %v", *dur))
	}
	if !invariant.Compiled {
		out.Usage(errors.New("built with -tags invariant_off; nothing to check"))
	}
	invariant.SetEnabled(true)
	if *seedBug != "" {
		b, err := invariant.ParseBug(*seedBug)
		if err != nil {
			out.Usage(err)
		}
		invariant.SetBug(b, true)
		fmt.Fprintf(os.Stderr, "hvcchaos: seeded bug %q armed\n", *seedBug)
	}

	if *repro != "" {
		trial, err := sweep.ParseCell(*repro)
		if err != nil {
			out.Usage(err)
		}
		rec, err := chaos.RunFlight(trial, *depth)
		if err != nil {
			fmt.Printf("reproduced: %v\n  job: %s\n", err, trial.Line())
			dumpFlight(rec)
			os.Exit(1)
		}
		fmt.Printf("clean: %s\n", trial.Line())
		return
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hvcchaos: "+format+"\n", args...)
		}
	}
	opts := chaos.Options{
		MetaSeed: *metaseed, Jobs: *jobs, Workers: *workers,
		Dur: *dur, Budget: *budget, Log: logf, FlightDepth: *depth,
	}
	stopProgress := func() {}
	if *progress > 0 {
		opts.Meter = telemetry.NewMeter()
		stopProgress = telemetry.StartProgress(os.Stderr, *progress, opts.Meter)
	}

	start := time.Now()
	finding, ran, err := chaos.Soak(opts)
	stopProgress()
	if err != nil {
		out.Usage(err)
	}
	if finding != nil {
		fmt.Printf("FINDING after %d trials (%.1fs):\n%s\n", ran, time.Since(start).Seconds(), finding)
		fmt.Printf("\nreplay with:\n  hvcchaos -repro %q", finding.Minimal.Line())
		if *seedBug != "" {
			fmt.Printf(" -seed-bug %s", *seedBug)
		}
		fmt.Println()
		dumpFlight(finding.Flight)
		os.Exit(1)
	}
	fmt.Printf("clean: %d trials, metaseed %d, %.1fs\n", ran, *metaseed, time.Since(start).Seconds())
}

// dumpFlight prints a recorder's last-N-events context after a finding
// or a failed repro. It goes to stdout below the replay line, so the
// repro string stays the last non-dump line CI and users extract.
func dumpFlight(rec *flight.Recorder) {
	if rec == nil || rec.Total() == 0 {
		return
	}
	fmt.Printf("\nflight recorder (last %d of %d events):\n", rec.Len(), rec.Total())
	if err := rec.Dump(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hvcchaos: flight dump: %v\n", err)
	}
}
