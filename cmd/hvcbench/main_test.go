package main

import (
	"strings"
	"testing"

	"hvc/internal/clitest"
)

// bin is the hvcbench binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) { clitest.Main(m, &bin) }

// TestExitCodes runs hvcbench over usage errors, unwritable outputs and
// good runs. Usage errors exit 2 and unwritable outputs exit 1, both
// before the first experiment runs: nothing on stdout, no file left
// behind.
func TestExitCodes(t *testing.T) {
	clitest.Run(t, bin, []clitest.Case{
		{Name: "unknown experiment", Args: []string{"-exp", "fig9", "-report", "$DIR/r.json"}, Code: 2,
			Files: []string{"r.json"}},
		{Name: "zero seeds", Args: []string{"-exp", "fig1a", "-quick", "-seeds", "0"}, Code: 2},
		{Name: "bad fault", Args: []string{"-exp", "all", "-quick", "-fault", "bogus=1", "-report", "$DIR/r.json"}, Code: 2,
			Files: []string{"r.json"}},
		{Name: "fault nobody reads", Args: []string{"-exp", "fig1a", "-quick", "-fault", "none", "-events", "$DIR/e.jsonl"}, Code: 2,
			Files: []string{"e.jsonl"}},
		{Name: "unwritable report", Args: []string{"-exp", "fig1a", "-quick", "-trace", "$DIR/t.json",
			"-report", "$DIR/no/r.json"}, Code: 1, Files: []string{"t.json", "no/r.json"}},
		{Name: "unwritable events", Args: []string{"-exp", "fig1a", "-quick", "-report", "$DIR/r.json",
			"-events", "$DIR/no/e.jsonl"}, Code: 1, Files: []string{"r.json", "no/e.jsonl"}},
		{Name: "unwritable memprofile", Args: []string{"-exp", "fig1a", "-quick", "-report", "$DIR/r.json",
			"-memprofile", "$DIR/no/mem.pb.gz"}, Code: 1, Files: []string{"r.json", "no/mem.pb.gz"}},

		{Name: "outputs", Args: []string{"-exp", "outage", "-quick", "-report", "$DIR/r.json",
			"-trace", "$DIR/t.json", "-events", "$DIR/e.jsonl"}, Files: []string{"r.json", "t.json", "e.jsonl"}},
		{Name: "fault", Args: []string{"-exp", "outage", "-quick", "-fault", "outage:ch=embb,at=1s,dur=1s"},
			Check: func(t *testing.T, dir, stdout, stderr string) {
				if !strings.Contains(stdout, "fault: outage:ch=embb,at=1s,dur=1s\n") {
					t.Errorf("the outage table does not name the fault: %q", stdout)
				}
			}},
		{Name: "parallel seeds", Args: []string{"-exp", "fig1a", "-quick", "-seeds", "2"}},
		{Name: "profiles", Args: []string{"-exp", "fig1a", "-quick", "-cpuprofile", "$DIR/cpu.pb.gz", "-memprofile", "$DIR/mem.pb.gz"},
			Files: []string{"cpu.pb.gz", "mem.pb.gz"},
			Check: func(t *testing.T, dir, stdout, stderr string) { clitest.Gzip(t, dir, "cpu.pb.gz", "mem.pb.gz") }},
	})
}
