package chaos

import (
	"errors"
	"time"

	"hvc/internal/fault"
	"hvc/internal/invariant"
	"hvc/internal/sweep"
)

// Shrink greedily minimizes a failing trial: it tries dropping fault
// clauses, collapsing repetitions, halving durations, and pulling
// windows earlier, keeping each candidate only if it still fails with
// the same violation (same layer and name — a candidate that fails
// differently is a different bug, not a smaller version of this one).
// It returns the minimal trial and the number of accepted steps.
//
// The walk restarts from the shrunk trial after every accepted step, so
// the result is a local minimum: no single remaining edit both stays
// valid and still reproduces the violation.
func Shrink(trial sweep.Spec, v *invariant.Violation, logf func(format string, args ...any)) (sweep.Spec, int) {
	steps := 0
	fails := func(c sweep.Spec) bool {
		err := Run(c)
		if err == nil {
			return false
		}
		if v == nil {
			// The original failure had no violation payload (a plain
			// panic or error); any failure counts as a reproduction.
			return true
		}
		var cv *invariant.Violation
		return errors.As(err, &cv) && cv.Layer == v.Layer && cv.Name == v.Name
	}
	for {
		accepted := false
		for _, c := range candidates(trial) {
			if fails(c) {
				trial, accepted = c, true
				steps++
				logf("shrink step %d: %s", steps, trial.Line())
				break // restart the candidate walk from the smaller trial
			}
		}
		if !accepted {
			return trial, steps
		}
	}
}

// candidates proposes the valid one-edit reductions of trial, most
// aggressive first.
func candidates(trial sweep.Spec) []sweep.Spec {
	faults, err := fault.ParseSpec(trial.Fault)
	if err != nil {
		return nil // not a trial Soak made; nothing to edit
	}
	events := faults.Events
	var out []sweep.Spec
	add := func(c sweep.Spec) {
		if c, ok := reparse(c); ok { // pulling a window earlier can make it overlap
			out = append(out, c)
		}
	}
	withFault := func(events []fault.Event) sweep.Spec {
		c := trial
		c.Fault = fault.Spec{Events: events}.String()
		return c
	}

	// Drop each clause. An outage trial must keep at least one: its
	// runner substitutes the default blackout schedule for an empty
	// scenario, which would change the trial instead of shrinking it.
	for i := range events {
		if len(events) == 1 && trial.Exp == sweep.ExpOutage {
			break
		}
		add(withFault(append(append([]fault.Event{}, events[:i]...), events[i+1:]...)))
	}

	// Collapse each repetition to a single window.
	for i, ev := range events {
		if ev.Count <= 1 {
			continue
		}
		add(withFault(withEvent(events, i, func(e *fault.Event) { e.Count, e.Every = 1, 0 })))
	}

	// Halve the run itself — the strongest time reduction.
	if half := (trial.Dur / 2).Truncate(time.Millisecond); half >= 100*time.Millisecond {
		c := trial
		c.Dur = half
		add(c)
	}

	// Halve each window, then pull it earlier.
	for i, ev := range events {
		if half := (ev.Dur / 2).Truncate(time.Millisecond); half >= time.Millisecond {
			add(withFault(withEvent(events, i, func(e *fault.Event) { e.Dur = half })))
		}
		if ev.At > 0 {
			add(withFault(withEvent(events, i, func(e *fault.Event) {
				e.At = (e.At / 2).Truncate(time.Millisecond)
			})))
		}
	}
	return out
}

// withEvent copies events with edit applied to clause i.
func withEvent(events []fault.Event, i int, edit func(*fault.Event)) []fault.Event {
	c := append([]fault.Event{}, events...)
	edit(&c[i])
	return c
}

// reparse returns the trial its line parses to, and whether it parses.
// A trial is kept in that form, so the line a finding prints replays it
// exactly.
func reparse(trial sweep.Spec) (sweep.Spec, bool) {
	c, err := sweep.ParseCell(trial.Line())
	return c, err == nil
}
