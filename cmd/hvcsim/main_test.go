package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the hvcsim binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hvcsim")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "hvcsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building hvcsim: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExitCodes runs hvcsim over usage errors, unwritable outputs and
// one good run per workload. A failed run exits without a panic,
// prints nothing on stdout and leaves none of its output files behind;
// a good one creates them all.
// In args, $DIR is a fresh directory per case.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  string
		code  int
		files []string // output files the run names, relative to $DIR
	}{
		{"unknown workload", "-workload ftp", 2, nil},
		{"unknown policy", "-workload bulk -policy bogus -dur 1s", 2, nil},
		{"unknown cc", "-workload bulk -cc tahoe -dur 1s", 2, nil},
		{"unknown trace", "-workload video -trace nowhere -dur 1s", 2, nil},
		{"web rejects priority", "-workload web -policy priority -pages 1", 2, nil},
		{"zero duration", "-workload bulk -dur 0s", 2, nil},
		{"zero pages", "-workload web -pages 0", 2, nil},
		{"malformed flag", "-workload bulk -dur soon", 2, nil},
		{"stray argument", "-workload bulk -dur 1s extra", 2, nil},
		{"video ignores -capture", "-workload video -dur 1s -capture $DIR/c.csv", 2, []string{"c.csv"}},
		{"web ignores -cc", "-workload web -pages 1 -cc bbr", 2, nil},
		{"web ignores -dur", "-workload web -pages 1 -dur 5s", 2, nil},
		{"video ignores -pages", "-workload video -dur 1s -pages 3", 2, nil},
		{"abr ignores -report", "-workload abr -dur 2s -report $DIR/r.json", 2, []string{"r.json"}},
		{"game ignores -tracefile", "-workload game -dur 1s -tracefile $DIR/t.json", 2, []string{"t.json"}},
		{"unwritable report", "-workload bulk -dur 1s -report $DIR/no/r.json -tracefile $DIR/t.json", 1,
			[]string{"no/r.json", "t.json"}},
		{"unwritable capture", "-workload bulk -dur 1s -report $DIR/r.json -capture $DIR/no/c.csv", 1,
			[]string{"r.json", "no/c.csv"}},

		{"bulk", "-workload bulk -dur 1s -capture $DIR/c.csv -report $DIR/r.json -tracefile $DIR/t.json", 0,
			[]string{"c.csv", "r.json", "t.json"}},
		{"video", "-workload video -dur 1s -report $DIR/r.json", 0, []string{"r.json"}},
		{"web", "-workload web -pages 1 -trace lowband-driving -tracefile $DIR/t.json", 0, []string{"t.json"}},
		{"abr", "-workload abr -dur 4s -policy objectmap", 0, nil},
		{"game", "-workload game -dur 1s -policy priority", 0, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(bin, strings.Fields(strings.ReplaceAll(c.args, "$DIR", dir))...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			if exit := (*exec.ExitError)(nil); errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, c.code, stderr.String())
			}
			if strings.Contains(stderr.String(), "panic:") {
				t.Fatalf("panicked: %s", stderr.String())
			}
			if (stdout.Len() == 0) != (c.code != 0) {
				t.Errorf("exit %d with stdout %q", code, stdout.String())
			}
			for _, f := range c.files {
				_, err := os.Stat(filepath.Join(dir, f))
				if exists := err == nil; exists != (c.code == 0) {
					t.Errorf("exit %d, yet %s exists = %v", code, f, exists)
				}
			}
		})
	}
}
