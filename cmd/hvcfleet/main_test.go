package main

import (
	"testing"

	"hvc/internal/clitest"
)

// bin is the hvcfleet binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) { clitest.Main(m, &bin) }

// small is a 20-UE fleet: with -shard 3 its last shard holds 2 UEs.
const small = "ues=20 seed=1 dur=500ms stagger=2s"

// TestExitCodes runs hvcfleet over usage errors, unwritable outputs and
// good runs. Usage errors exit 2 and unwritable outputs exit 1, both
// before simulating: nothing on stdout, no file left behind.
func TestExitCodes(t *testing.T) {
	clitest.Run(t, bin, []clitest.Case{
		{Name: "bad spec", Args: []string{"-spec", "stagger=0s", "-json", "$DIR/f.json"}, Code: 2,
			Files: []string{"f.json"}},
		{Name: "unknown flag", Args: []string{"-spec", small, "-format", "csv"}, Code: 2},
		{Name: "unwritable json", Args: []string{"-spec", small, "-json", "$DIR/no/f.json", "-cpuprofile", "$DIR/cpu.pb.gz"}, Code: 1,
			Files: []string{"no/f.json", "cpu.pb.gz"}},
		{Name: "unwritable memprofile", Args: []string{"-spec", small, "-json", "$DIR/f.json", "-memprofile", "$DIR/no/mem.pb.gz"}, Code: 1,
			Files: []string{"f.json", "no/mem.pb.gz"}},

		{Name: "short last shard with progress", Args: []string{"-spec", small, "-workers", "2", "-shard", "3",
			"-progress", "1h", "-json", "$DIR/f.json"}, Files: []string{"f.json"},
			Check: func(t *testing.T, dir, stdout, stderr string) {
				if p := clitest.FinalProgress(t, stderr); p.Total != 20 {
					t.Errorf("progress total %d, want the 20 UEs", p.Total)
				}
			}},
		{Name: "profiles", Args: []string{"-spec", small, "-cpuprofile", "$DIR/cpu.pb.gz", "-memprofile", "$DIR/mem.pb.gz"},
			Files: []string{"cpu.pb.gz", "mem.pb.gz"},
			Check: func(t *testing.T, dir, stdout, stderr string) { clitest.Gzip(t, dir, "cpu.pb.gz", "mem.pb.gz") }},
	})
}
