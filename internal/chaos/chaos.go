package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hvc/internal/core"
	"hvc/internal/flight"
	"hvc/internal/invariant"
	"hvc/internal/pool"
	"hvc/internal/telemetry"
)

// Options configures a soak.
type Options struct {
	// MetaSeed seeds the generator of jobs. The whole soak is a pure
	// function of it (plus Jobs and Dur): same seed, same job list,
	// same finding.
	MetaSeed int64
	// Jobs is how many trials to generate; <= 0 means 256.
	Jobs int
	// Workers caps the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Dur is the virtual duration of each trial; <= 0 means 4s —
	// long enough for several RTOs and fault windows, short enough
	// to soak hundreds of trials in seconds of wall clock.
	Dur time.Duration
	// Budget bounds wall-clock time; 0 means no bound. The soak stops
	// claiming new batches once the budget is spent, so it overruns by
	// at most one batch.
	Budget time.Duration
	// Log, when non-nil, receives per-batch progress lines and the
	// shrinker's steps.
	Log func(format string, args ...any)
	// Meter, when non-nil, counts finished trials against Jobs and
	// receives each trial's wall-clock duration as "trial_ms", the live
	// quantile surface for watching a soak's pace. Nothing downstream
	// of the finding reads it.
	Meter *telemetry.Meter
	// FlightDepth sizes the flight recorder attached when a finding's
	// minimal counterexample is replayed for its dump; <= 0 means
	// flight.DefaultDepth.
	FlightDepth int
}

// A Finding is one invariant violation the soak surfaced, shrunk to a
// minimal replayable counterexample.
type Finding struct {
	// Job is the original failing trial, Minimal the shrunk one. Both
	// fail with the same violation; Minimal is the one to debug.
	Job, Minimal Job
	// Violation is the typed invariant failure, nil when the job
	// failed some other way (an unexpected panic or error — still a
	// finding: chaos runs must not fail at all).
	Violation *invariant.Violation
	// Err is the job's raw error.
	Err error
	// Shrunk counts the accepted shrink steps from Job to Minimal.
	Shrunk int
	// Flight is the recorder captured by replaying Minimal: the last
	// events leading up to the breach, the breach itself appended as a
	// synthetic note. Replay is deterministic, so this is the same
	// telemetry the original failure produced.
	Flight *flight.Recorder
}

func (f *Finding) String() string {
	cause := "error"
	if f.Violation != nil {
		cause = fmt.Sprintf("invariant %s/%s", f.Violation.Layer, f.Violation.Name)
	}
	return fmt.Sprintf("%s: %v\n  original: %s\n  minimal (%d shrink steps): %s",
		cause, f.Err, f.Job, f.Shrunk, f.Minimal)
}

// Soak generates opts.Jobs trials from the meta-RNG and runs them with
// the invariant layer armed. It returns the first finding in job order
// (deterministic for any worker count) shrunk to a minimal
// counterexample, or nil if every trial passed. ran reports how many
// trials actually executed before the budget or a finding stopped the
// soak.
func Soak(opts Options) (finding *Finding, ran int, err error) {
	if !invariant.Enabled() {
		return nil, 0, errors.New("chaos: invariants are compiled out or disabled; a soak without them proves nothing")
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 256
	}
	if opts.Dur <= 0 {
		opts.Dur = 4 * time.Second
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	rng := rand.New(rand.NewSource(opts.MetaSeed))
	jobs := make([]Job, opts.Jobs)
	for i := range jobs {
		jobs[i] = genJob(rng, opts.Dur)
	}

	// Run in bounded batches so a wall-clock budget can stop the soak
	// between batches. Determinism holds regardless: jobs are claimed
	// in order and pool.Map reports the lowest failing index, so the
	// first finding is the first failing job, whatever the batch size.
	batch := opts.Workers
	if batch <= 0 {
		batch = 8
	}
	batch *= 4
	start := time.Now()
	opts.Meter.SetTotal(len(jobs))
	for lo := 0; lo < len(jobs); lo += batch {
		hi := lo + batch
		if hi > len(jobs) {
			hi = len(jobs)
		}
		_, err := pool.Map(hi-lo, opts.Workers, func(i int) (struct{}, error) {
			t0 := time.Now()
			err := Run(jobs[lo+i])
			opts.Meter.Observe("trial_ms", float64(time.Since(t0))/float64(time.Millisecond))
			opts.Meter.Add(1, 0)
			return struct{}{}, err
		})
		if err != nil {
			var je *pool.Error
			if !errors.As(err, &je) {
				return nil, ran, err
			}
			j := jobs[lo+je.Index]
			ran += je.Index + 1
			logf("job %d failed: %v", lo+je.Index, je.Err)
			f := &Finding{Job: j, Err: je.Err}
			errors.As(je.Err, &f.Violation)
			f.Minimal, f.Shrunk = Shrink(j, f.Violation, logf)
			f.Flight, _ = RunFlight(f.Minimal, opts.FlightDepth)
			return f, ran, nil
		}
		ran += hi - lo
		logf("soaked %d/%d trials (%.1fs)", ran, len(jobs), time.Since(start).Seconds())
		if opts.Budget > 0 && time.Since(start) > opts.Budget {
			logf("budget %v spent after %d trials", opts.Budget, ran)
			break
		}
	}
	return nil, ran, nil
}

// Run executes one trial with per-job panic isolation: an invariant
// violation (or any other panic) inside the simulation surfaces as the
// returned error instead of killing the process, so one bad trial
// cannot take the soak — or the other in-flight trials — down with it.
func Run(j Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recovered(r)
		}
	}()
	return dispatch(j, nil)
}

// RunFlight executes one trial like Run, with a flight recorder riding
// the run's telemetry stream. On failure the recorder holds the last
// events leading up to the breach, the breach itself appended as a
// synthetic note — the triage context every finding ships with. The
// recorder is returned in every case; on success its ring is just the
// tail of a healthy run.
func RunFlight(j Job, depth int) (rec *flight.Recorder, err error) {
	rec = flight.NewRecorder(depth)
	tr := telemetry.New(rec)
	tr.BeginRun(j.String())
	defer func() {
		if r := recover(); r != nil {
			err = recovered(r)
		}
		if err == nil {
			return
		}
		var v *invariant.Violation
		if errors.As(err, &v) {
			rec.Note(v.Layer, v.Name, v.Detail)
		} else {
			rec.Note("chaos", "failure", err.Error())
		}
	}()
	return rec, dispatch(j, tr)
}

// recovered converts a trial panic into its error form, preserving a
// typed panic value (an *invariant.Violation) for errors.As.
func recovered(r any) error {
	if e, ok := r.(error); ok {
		return e
	}
	return fmt.Errorf("chaos: job panicked: %v", r)
}

// dispatch runs the job's experiment under an optional tracer.
func dispatch(j Job, tr *telemetry.Tracer) (err error) {
	switch j.Exp {
	case ExpBulk:
		_, err = core.RunBulk(core.BulkConfig{
			Seed: j.Seed, Duration: j.Dur, CC: j.CC,
			Policy: j.Policy, Fault: j.Fault.String(), Tracer: tr,
		})
	case ExpOutage:
		_, err = core.RunOutage(core.OutageConfig{
			Seed: j.Seed, Duration: j.Dur,
			Policy: j.Policy, Fault: j.Fault.String(), Reliable: j.Reliable, Tracer: tr,
		})
	default:
		err = fmt.Errorf("chaos: unknown experiment %q", j.Exp)
	}
	return err
}
