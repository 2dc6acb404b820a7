package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hvc/internal/clitest"
)

// bin is the hvcsweep binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) { clitest.Main(m, &bin) }

// small is a two-job grid that simulates in well under a second.
const small = "exp=video policy=dchannel seeds=1..2 dur=1s"

// TestExitCodes runs hvcsweep over usage errors, unwritable outputs and
// good runs. Usage errors exit 2 and unwritable outputs exit 1, both
// before simulating: nothing on stdout, no file left behind, not even
// a result cache.
func TestExitCodes(t *testing.T) {
	clitest.Run(t, bin, []clitest.Case{
		{Name: "bad spec", Args: []string{"-spec", "exp=web dur=0s", "-json", "$DIR/s.json"}, Code: 2,
			Files: []string{"s.json"}},
		{Name: "unknown format", Args: []string{"-spec", small, "-format", "bogus", "-cache", "$DIR/cache", "-csv", "$DIR/s.csv"}, Code: 2,
			Files: []string{"cache", "s.csv"}},
		{Name: "fleet mode is gone", Args: []string{"-fleet", "-spec", "ues=10"}, Code: 2},
		{Name: "verbose flag is gone", Args: []string{"-spec", small, "-v"}, Code: 2},
		{Name: "unwritable json", Args: []string{"-spec", small, "-csv", "$DIR/s.csv", "-json", "$DIR/no/s.json"}, Code: 1,
			Files: []string{"s.csv", "no/s.json"}},
		{Name: "unwritable csv", Args: []string{"-spec", small, "-json", "$DIR/s.json", "-csv", "$DIR/no/s.csv"}, Code: 1,
			Files: []string{"s.json", "no/s.csv"}},
		{Name: "unwritable memprofile", Args: []string{"-spec", small, "-json", "$DIR/s.json",
			"-cpuprofile", "$DIR/cpu.pb.gz", "-memprofile", "$DIR/no/mem.pb.gz"}, Code: 1,
			Files: []string{"s.json", "cpu.pb.gz", "no/mem.pb.gz"}},

		{Name: "table with progress", Args: []string{"-spec", small, "-no-cache", "-workers", "2", "-progress", "1h",
			"-json", "$DIR/s.json", "-csv", "$DIR/s.csv"}, Files: []string{"s.json", "s.csv"},
			Check: func(t *testing.T, dir, stdout, stderr string) {
				if p := clitest.FinalProgress(t, stderr); p.Total != 2 {
					t.Errorf("progress total %d, want the 2 jobs", p.Total)
				}
				if !strings.Contains(stderr, "2 jobs (2 executed, 0 cached)") {
					t.Errorf("stderr lacks the job tally: %s", stderr)
				}
			}},
		{Name: "csv", Args: []string{"-spec", small, "-no-cache", "-format", "csv"},
			Check: func(t *testing.T, dir, stdout, stderr string) {
				if !strings.HasPrefix(stdout, "exp,") {
					t.Errorf("stdout is not the CSV matrix: %q", stdout)
				}
			}},
		{Name: "profiles", Args: []string{"-spec", small, "-no-cache",
			"-cpuprofile", "$DIR/cpu.pb.gz", "-memprofile", "$DIR/mem.pb.gz"}, Files: []string{"cpu.pb.gz", "mem.pb.gz"},
			Check: func(t *testing.T, dir, stdout, stderr string) { clitest.Gzip(t, dir, "cpu.pb.gz", "mem.pb.gz") }},
	})
}

// TestCachedRerun runs one grid on one cache four times: the repeat is
// all hits, and the meter's cached count reaches both the progress
// line and the tally line CI greps. A byte-identical copy of the
// binary at another path hits too; a copy that differs in one byte is
// another build and recomputes every cell, with the same results.
func TestCachedRerun(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	exe, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	same, other := filepath.Join(dir, "same"), filepath.Join(dir, "other")
	if err := os.WriteFile(same, exe, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, append(exe, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	var first string
	for i, run := range []struct {
		bin    string
		cached int
	}{{bin, 0}, {bin, 2}, {same, 2}, {other, 0}} {
		cmd := exec.Command(run.bin, "-spec", small, "-cache", cache, "-progress", "1h")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("run %d: %v; stderr: %s", i, err, stderr.String())
		}
		if p := clitest.FinalProgress(t, stderr.String()); p.Cached != run.cached {
			t.Errorf("run %d: progress reports %d cached, want %d", i, p.Cached, run.cached)
		}
		if tally := fmt.Sprintf("2 jobs (%d executed, %d cached)", 2-run.cached, run.cached); !strings.Contains(stderr.String(), tally) {
			t.Errorf("run %d: stderr lacks %q: %s", i, tally, stderr.String())
		}
		if i == 0 {
			first = string(out)
		} else if string(out) != first {
			t.Fatalf("run %d changed stdout:\n%s\nvs\n%s", i, first, out)
		}
	}
}

// TestQuickShrinksBeforeDefaults checks that -quick shortens the spec
// before its defaults are filled in, so the spec printed is the one
// run: the default outage schedule is the one dur=5s gets, an explicit
// fault scenario is kept as written, and arena joins that do not fit
// the shortened run are a usage error like any other spec error.
func TestQuickShrinksBeforeDefaults(t *testing.T) {
	specLine := func(want string) func(*testing.T, string, string, string) {
		return func(t *testing.T, dir, stdout, stderr string) {
			if got, _, _ := strings.Cut(stdout, "\n"); got != want {
				t.Errorf("spec line %q, want %q", got, want)
			}
		}
	}
	clitest.Run(t, bin, []clitest.Case{
		{Name: "default outage schedule", Args: []string{"-quick", "-no-cache", "-spec", "exp=outage policy=embb-only seeds=1..1"},
			Check: specLine("spec: exp=outage policy=embb-only trace=fixed seeds=1..1 dur=5s " +
				"fault=outage:ch=embb,at=1.25s,dur=625ms;outage:ch=embb,at=3.125s,dur=625ms")},
		{Name: "explicit fault", Args: []string{"-quick", "-no-cache", "-spec",
			"exp=outage policy=embb-only seeds=1..1 dur=8s fault=outage:ch=embb,at=2s,dur=1s"},
			Check: specLine("spec: exp=outage policy=embb-only trace=fixed seeds=1..1 dur=5s fault=outage:ch=embb,at=2s,dur=1s")},
		{Name: "arena joins past the quick dur", Args: []string{"-quick", "-spec", "exp=arena flows=4 join=2s dur=15s",
			"-json", "$DIR/s.json"}, Code: 2, Files: []string{"s.json"}},
	})
}
