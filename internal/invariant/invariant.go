// Package invariant is the cross-layer runtime checking subsystem: it
// lets every data-path layer (sim, netem, transport, steering, fault)
// assert the structural properties that must hold at all times —
// packet and byte conservation per link, exactly-once message
// delivery, cwnd/inflight accounting, monotonic virtual time,
// event-heap integrity, steering liveness — and turn any breach into
// an immediate, attributable failure instead of a silently wrong
// experiment result.
//
// The checks follow a strict cost discipline:
//
//   - Compiled out: building with -tags invariant_off makes Compiled a
//     false constant, so every "if invariant.Enabled()" guard folds
//     away and the binary carries zero overhead. The benchstat CI gate
//     builds this way.
//   - Compiled in, disabled (the default at runtime): one predictable
//     branch per check site.
//   - Enabled: checks run but never allocate on the success path; the
//     failure path builds a *Violation and panics, which the chaos
//     harness (internal/chaos) and the worker pool (internal/pool)
//     catch and attribute to the failing job. The chaos harness then
//     replays the shrunk counterexample under a flight recorder
//     (internal/flight), so every violation ships with the last
//     telemetry events leading up to the breach — the breach itself
//     appended as the dump's final line.
//
// Tests enable checking process-wide from TestMain via SetEnabled, so
// the whole suite doubles as an invariant soak. Enabled checking is
// read-only by construction: it must never change a simulation's
// observable behaviour, which the determinism matrix verifies.
//
// The package also hosts the seeded-bug switches (SetBug): deliberate,
// named reintroductions of once-fixed bugs that let the chaos-soak
// harness prove, end to end, that its detection and shrinking
// machinery actually works; and the fresh-record switch (SetFresh),
// which turns every free list off so a test can prove that recycling
// never shows in a result. Production code never sets them.
package invariant

import "fmt"

// enabled is the process-wide runtime switch. It is written only
// before a simulation or test run starts (TestMain, CLI main) and read
// from then on, so unsynchronized reads from worker goroutines are
// race-free.
var enabled bool

// Enabled reports whether invariant checking is active. When the
// package is compiled out (-tags invariant_off) this is a constant
// false and guarded check sites disappear entirely.
func Enabled() bool { return Compiled && enabled }

// SetEnabled switches runtime checking on or off. Call it before
// starting simulations — from TestMain or a CLI main — never
// concurrently with running loops. It has no effect when the package
// is compiled out.
func SetEnabled(on bool) { enabled = on }

// A Violation is the panic value of a failed invariant check: the
// layer that owns the invariant, the invariant's name, and a rendered
// detail string. It implements error so pool workers and the chaos
// harness can surface it through ordinary error paths.
type Violation struct {
	// Layer names the owning subsystem: "sim", "netem", "transport",
	// "steering", "fault".
	Layer string
	// Name identifies the invariant, e.g. "conservation",
	// "exactly-once", "monotonic-time".
	Name string
	// Detail describes the specific breach.
	Detail string
}

// Error renders the violation as layer/name: detail.
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant violated: %s/%s: %s", v.Layer, v.Name, v.Detail)
}

// Failf reports an invariant breach: it panics with a *Violation
// carrying the formatted detail. Call it only from a check site that
// has already established the breach — the allocation happens on the
// failure path alone.
func Failf(layer, name, format string, args ...any) {
	panic(&Violation{Layer: layer, Name: name, Detail: fmt.Sprintf(format, args...)})
}

// Seeded-bug switches ------------------------------------------------

// A Bug names one deliberate, reintroducible defect. Bugs are a
// bitmask so the hot-path test is a single AND.
type Bug uint32

const (
	// BugDupDeliver disables the receiver's completed-message dedup
	// (the doneMsgs check PR 5 introduced), reintroducing the real
	// duplicate-delivery bug where a retransmitted copy of an
	// already-delivered message delivers again. The chaos harness uses
	// it to prove its detection and shrinking pipeline end to end.
	BugDupDeliver Bug = 1 << iota
)

// bugNames maps the CLI spelling of each seeded bug to its bit.
var bugNames = map[string]Bug{
	"dup-deliver": BugDupDeliver,
}

// bugs is the active seeded-bug set. Like enabled, it is written only
// before a run starts.
var bugs Bug

// BugEnabled reports whether the named seeded bug is active. Compiled
// out, it is constant false: seeded bugs cannot ship in an
// invariant_off build.
func BugEnabled(b Bug) bool { return Compiled && bugs&b != 0 }

// SetBug activates or clears one seeded bug. Call it only before
// starting simulations.
func SetBug(b Bug, on bool) {
	if on {
		bugs |= b
	} else {
		bugs &^= b
	}
}

// fresh is the fresh-record switch. Like bugs, it is written only
// before a run starts.
var fresh bool

// Fresh reports whether the free lists are bypassed: with it on, every
// free-list get allocates and every put or retire drops — the packet
// pool, the transport arena and its window arrays, the spare a finished
// world hands on, and the loop and link arrays handed with it. A run
// must print the same bytes either way, since where a record came from
// must never show in a result. Compiled out, it is constant false.
func Fresh() bool { return Compiled && fresh }

// SetFresh switches the free lists off or back on. Call it only between
// runs; production code never sets it.
func SetFresh(on bool) { fresh = on }

// ParseBug resolves a seeded bug's CLI name ("dup-deliver").
func ParseBug(name string) (Bug, error) {
	if b, ok := bugNames[name]; ok {
		return b, nil
	}
	return 0, fmt.Errorf("invariant: unknown seeded bug %q", name)
}
