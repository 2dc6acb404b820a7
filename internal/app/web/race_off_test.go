//go:build !race

package web

// raceEnabled reports whether the race detector is active. Allocation
// budgets are skipped under -race: its instrumentation allocates, so
// the counts tests pin would be meaningless.
const raceEnabled = false
