//go:build !race

package transport

// raceEnabled reports whether the race detector is active. Timing and
// memory budgets are skipped under -race: its instrumentation slows and
// allocates, so the numbers the tests pin would be meaningless.
const raceEnabled = false
