package core

// RaceEnabled exposes raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

// NewWorld exposes newWorld to the package's external tests.
var NewWorld = newWorld
