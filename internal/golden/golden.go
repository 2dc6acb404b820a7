// Package golden pins a program's whole output in
// testdata/stdout.golden: go test -update rewrites the file after a
// change that means to move the output.
package golden

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from the current output")

// Stdout runs report and compares what it writes with the golden file.
func Stdout(t *testing.T, report func(io.Writer)) {
	t.Helper()
	var got bytes.Buffer
	report(&got)
	const golden = "testdata/stdout.golden"
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
