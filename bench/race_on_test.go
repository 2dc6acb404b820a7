//go:build race

package main

// raceEnabled reports whether the race detector is active; the smoke
// run is skipped under it.
const raceEnabled = true
