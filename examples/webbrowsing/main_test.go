package main

import (
	"testing"

	"hvc/internal/golden"
)

// The example's whole output is pinned: go test -update rewrites the
// golden file after a change that means to move it.
func TestStdoutGolden(t *testing.T) { golden.Stdout(t, report) }
