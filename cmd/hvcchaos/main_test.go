package main

import (
	"strings"
	"testing"

	"hvc/internal/clitest"
)

// bin is the hvcchaos binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) { clitest.Main(m, &bin) }

// TestExitCodes runs hvcchaos over usage errors and clean soaks. Usage
// errors exit 2 before simulating, with nothing on stdout.
func TestExitCodes(t *testing.T) {
	clitest.Run(t, bin, []clitest.Case{
		{Name: "zero jobs", Args: []string{"-jobs", "0", "-progress", "1h"}, Code: 2},
		{Name: "zero duration", Args: []string{"-jobs", "4", "-dur", "0s"}, Code: 2},
		{Name: "unknown bug", Args: []string{"-seed-bug", "bogus", "-jobs", "4", "-dur", "1s"}, Code: 2},
		{Name: "bad repro", Args: []string{"-repro", "exp=bulk cc=tahoe policy=dchannel seed=1 dur=2s fault=none"}, Code: 2},
		{Name: "grid repro", Args: []string{"-repro", "exp=bulk cc=cubic,bbr seed=1 dur=1s"}, Code: 2},
		{Name: "seed range repro", Args: []string{"-repro", "exp=outage policy=dchannel seeds=1..2 dur=1s"}, Code: 2},
		{Name: "old-format repro", Args: []string{"-repro", "exp=outage policy=redundant seed=7 dur=1s reliable=true fault=outage:ch=embb,at=200ms,dur=100ms"},
			Check: func(t *testing.T, dir, stdout, stderr string) {
				want := "clean: exp=outage policy=redundant trace=fixed seed=7 dur=1s reliable=true fault=outage:ch=embb,at=200ms,dur=100ms\n"
				if stdout != want {
					t.Errorf("stdout %q, want %q", stdout, want)
				}
			}},

		{Name: "soak with progress", Args: []string{"-jobs", "6", "-dur", "1s", "-workers", "2", "-progress", "1h"},
			Check: func(t *testing.T, dir, stdout, stderr string) {
				if !strings.HasPrefix(stdout, "clean: 6 trials") {
					t.Errorf("stdout %q, want a clean 6-trial soak", stdout)
				}
				if p := clitest.FinalProgress(t, stderr); p.Total != 6 {
					t.Errorf("progress total %d, want the 6 trials", p.Total)
				}
			}},
		{Name: "default job count", Args: []string{"-dur", "100ms", "-progress", "1h"},
			Check: func(t *testing.T, dir, stdout, stderr string) {
				if p := clitest.FinalProgress(t, stderr); p.Total != 256 {
					t.Errorf("progress total %d, want the default 256 trials", p.Total)
				}
			}},
	})
}
