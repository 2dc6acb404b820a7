// Package chaos is the randomized soak harness over the simulator's
// runtime invariants: it generates fault schedules × experiments ×
// seeds from a seeded meta-RNG, runs each combination with the
// invariant layer armed, and — when a run panics with a violation —
// shrinks the failing combination to a minimal counterexample that
// replays from a single flag string.
//
// Everything downstream of the meta-seed is deterministic: the same
// MetaSeed produces the same job list, the same lowest-index finding,
// and the same minimal counterexample, for any worker count.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"hvc/internal/core"
	"hvc/internal/fault"
	"hvc/internal/spec"
)

// Experiments a chaos job can drive. Bulk exercises the reliable
// single-flow path (Fig. 1), outage the unreliable frame stream under
// blackouts (§3.3) — between them they cover both delivery modes of
// the transport.
const (
	ExpBulk   = "bulk"
	ExpOutage = "outage"
)

// A Job is one self-contained chaos trial: an experiment at one seed
// under one fault schedule. Its String form is the replayable
// counterexample format the harness emits and the -repro flag accepts.
type Job struct {
	Exp      string
	CC       string // bulk only; empty otherwise
	Policy   string
	Seed     int64
	Dur      time.Duration
	Fault    fault.Spec
	Reliable bool // outage only: reliable frame stream
}

// String renders the job in the space-separated key=value grammar
// (the fault spec is space-free by construction, so the whole job is
// one shell word per field):
//
//	exp=outage policy=redundant seed=7 dur=4s fault=outage:ch=embb,at=1s,dur=500ms
//
// ParseJob(j.String()) reproduces j.
func (j Job) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exp=%s", j.Exp)
	if j.CC != "" {
		fmt.Fprintf(&b, " cc=%s", j.CC)
	}
	fmt.Fprintf(&b, " policy=%s seed=%d dur=%s", j.Policy, j.Seed, j.Dur)
	if j.Reliable {
		b.WriteString(" reliable=true")
	}
	fmt.Fprintf(&b, " fault=%s", j.Fault)
	return b.String()
}

// ParseJob parses the String form back into a Job: a field table over
// internal/spec in canonical key order, then the cross-field rules.
// Names are checked here, so a typo in a -repro string is a usage
// error and whatever dispatch reports comes from the simulation.
func ParseJob(s string) (Job, error) {
	var j Job
	if _, err := spec.Parse("chaos", strings.Fields(s), []spec.Field{
		spec.String("exp", &j.Exp),
		spec.String("cc", &j.CC),
		spec.String("policy", &j.Policy),
		spec.Int64("seed", &j.Seed),
		spec.Dur("dur", &j.Dur),
		spec.Bool("reliable", &j.Reliable),
		// The value is everything after the first '=', so the '='s inside
		// the scenario's own key=value pairs pass through intact.
		spec.Func("fault", func(val string) (err error) {
			j.Fault, err = fault.ParseSpec(val)
			return err
		}),
	}); err != nil {
		return Job{}, err
	}
	switch j.Exp {
	case ExpBulk:
		if j.CC == "" {
			return Job{}, fmt.Errorf("chaos: bulk job needs cc=")
		}
		if j.Reliable {
			return Job{}, fmt.Errorf("chaos: reliable= only applies to outage jobs")
		}
	case ExpOutage:
		if j.CC != "" {
			return Job{}, fmt.Errorf("chaos: cc= only applies to bulk jobs")
		}
	default:
		return Job{}, fmt.Errorf("chaos: unknown experiment %q", j.Exp)
	}
	if j.Policy == "" || j.Dur <= 0 {
		return Job{}, fmt.Errorf("chaos: job %q needs policy= and a positive dur=", s)
	}
	var ccs []string
	if j.CC != "" { // bulk only, by the rules above
		ccs = []string{j.CC}
	}
	if err := core.CheckNames(ccs, []string{j.Policy}, nil); err != nil {
		return Job{}, fmt.Errorf("chaos: %w", err)
	}
	return j, nil
}
