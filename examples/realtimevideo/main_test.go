package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from the current output")

// The example's whole output is pinned: go test -update rewrites the
// golden file after a change that means to move it.
func TestStdoutGolden(t *testing.T) {
	var got bytes.Buffer
	report(&got)
	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout differs from %s (go test -update rewrites it):\n--- got\n%s--- want\n%s", golden, got.Bytes(), want)
	}
}
