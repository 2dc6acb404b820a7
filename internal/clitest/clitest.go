// Package clitest runs a command's binary over a table of cases and
// checks the exit contract the commands under cmd/ share: a failed run
// exits with its code, without a panic, prints nothing on stdout and
// leaves none of its output files behind; a good run prints to stdout
// and creates every file it names.
package clitest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hvc/internal/telemetry"
)

// Main builds the command in the working directory into *bin, runs the
// package's tests and exits. Call it from TestMain.
func Main(m *testing.M, bin *string) {
	dir, err := os.MkdirTemp("", "clitest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	*bin = filepath.Join(dir, "cmd")
	if out, err := exec.Command("go", "build", "-o", *bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the command: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// A Case is one invocation and its expected outcome.
type Case struct {
	Name string
	// Args are the command-line arguments; $DIR in one is replaced by
	// a fresh directory per case.
	Args []string
	Code int
	// Files are the output files the run names, relative to $DIR.
	Files []string
	// Check, when non-nil, inspects a run that exited as expected.
	Check func(t *testing.T, dir, stdout, stderr string)
}

// Run runs bin over the cases, one subtest each.
func Run(t *testing.T, bin string, cases []Case) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(c.Args))
			for i, a := range c.Args {
				args[i] = strings.ReplaceAll(a, "$DIR", dir)
			}
			cmd := exec.Command(bin, args...)
			cmd.Dir = dir
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			if exit := (*exec.ExitError)(nil); errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.Code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, c.Code, stderr.String())
			}
			if strings.Contains(stderr.String(), "panic:") {
				t.Fatalf("panicked: %s", stderr.String())
			}
			if (stdout.Len() == 0) != (c.Code != 0) {
				t.Errorf("exit %d with stdout %q", code, stdout.String())
			}
			for _, f := range c.Files {
				_, err := os.Stat(filepath.Join(dir, f))
				if exists := err == nil; exists != (c.Code == 0) {
					t.Errorf("exit %d, yet %s exists = %v", code, f, exists)
				}
			}
			if c.Check != nil {
				c.Check(t, dir, stdout.String(), stderr.String())
			}
		})
	}
}

// FinalProgress returns the last hvc-progress/v1 line in stderr and
// fails the test unless that line counts every unit of a non-empty
// run: done == total > 0.
func FinalProgress(t *testing.T, stderr string) telemetry.Progress {
	t.Helper()
	var last telemetry.Progress
	for _, line := range strings.Split(stderr, "\n") {
		if strings.Contains(line, `"schema":"`+telemetry.ProgressSchema+`"`) {
			if err := json.Unmarshal([]byte(line), &last); err != nil {
				t.Fatalf("progress line %q: %v", line, err)
			}
		}
	}
	if last.Schema == "" {
		t.Fatalf("no %s line on stderr: %s", telemetry.ProgressSchema, stderr)
	}
	if last.Total == 0 || last.Done != last.Total {
		t.Fatalf("final progress done=%d total=%d, want done == total > 0", last.Done, last.Total)
	}
	return last
}

// Gzip fails the test unless each named file under dir is non-empty
// and gzip-compressed, as pprof profiles are.
func Gzip(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("%s is not a non-empty gzip file (%d bytes)", name, len(b))
		}
	}
}
