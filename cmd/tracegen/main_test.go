package main

import (
	"os/exec"
	"strings"
	"testing"

	"hvc/internal/clitest"
	"hvc/internal/core"
)

// bin is the tracegen binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) { clitest.Main(m, &bin) }

// TestExitCodes runs tracegen over usage errors and good runs. A usage
// error exits 2 before generating: nothing on stdout, not even the CSV
// header.
func TestExitCodes(t *testing.T) {
	clitest.Run(t, bin, []clitest.Case{
		{Name: "unknown trace", Args: []string{"-name", "bogus"}, Code: 2},
		{Name: "zero duration", Args: []string{"-dur", "0"}, Code: 2},
		{Name: "negative duration", Args: []string{"-dur", "-5s"}, Code: 2},
		{Name: "positional argument", Args: []string{"extra", "-dur", "1s"}, Code: 2},
		{Name: "argument after flags", Args: []string{"-dur", "1s", "extra"}, Code: 2},

		{Name: "one second", Args: []string{"-name", "lowband-driving", "-seed", "7", "-dur", "1s"},
			Check: func(t *testing.T, dir, stdout, stderr string) {
				// A comment line, the column header, one sample per 100 ms.
				lines := strings.Split(strings.TrimSpace(stdout), "\n")
				if len(lines) != 12 || lines[1] != "t_ms,rtt_ms,rate_mbps" || !strings.HasPrefix(lines[11], "900,") {
					t.Errorf("want a header and ten samples up to t=900 ms, got %d lines: %q", len(lines), stdout)
				}
			}},
	})
}

// TestUsageNamesEveryTrace checks that -name's help lists every trace
// core.NewTrace accepts.
func TestUsageNamesEveryTrace(t *testing.T) {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v: %s", err, out)
	}
	_, help, _ := strings.Cut(string(out), "-name string\n")
	help, _, _ = strings.Cut(help, "\n")
	for _, n := range core.TraceNames() {
		if !strings.Contains(help, n) {
			t.Errorf("-name help %q does not name trace %q", help, n)
		}
	}
}
