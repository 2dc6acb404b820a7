package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"

	"hvc/internal/clitest"
	"hvc/internal/core"
)

// bin is the hvcsim binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) { clitest.Main(m, &bin) }

// TestExitCodes runs hvcsim over usage errors, unwritable outputs and
// one good run per workload. Usage errors exit 2 and unwritable outputs
// exit 1, both before simulating: nothing on stdout, no file left
// behind.
func TestExitCodes(t *testing.T) {
	clitest.Run(t, bin, []clitest.Case{
		{Name: "unknown workload", Args: strings.Fields("-workload ftp"), Code: 2},
		{Name: "unknown policy", Args: strings.Fields("-workload bulk -policy bogus -dur 1s"), Code: 2},
		{Name: "unknown cc", Args: strings.Fields("-workload bulk -cc tahoe -dur 1s"), Code: 2},
		{Name: "unknown trace", Args: strings.Fields("-workload video -trace nowhere -dur 1s"), Code: 2},
		{Name: "web rejects priority", Args: strings.Fields("-workload web -policy priority -pages 1"), Code: 2},
		{Name: "zero duration", Args: strings.Fields("-workload bulk -dur 0s"), Code: 2},
		{Name: "zero pages", Args: strings.Fields("-workload web -pages 0"), Code: 2},
		{Name: "malformed flag", Args: strings.Fields("-workload bulk -dur soon"), Code: 2},
		{Name: "stray argument", Args: strings.Fields("-workload bulk -dur 1s extra"), Code: 2},
		{Name: "video ignores -capture", Args: strings.Fields("-workload video -dur 1s -capture $DIR/c.csv"), Code: 2,
			Files: []string{"c.csv"}},
		{Name: "web ignores -cc", Args: strings.Fields("-workload web -pages 1 -cc bbr"), Code: 2},
		{Name: "web ignores -dur", Args: strings.Fields("-workload web -pages 1 -dur 5s"), Code: 2},
		{Name: "video ignores -pages", Args: strings.Fields("-workload video -dur 1s -pages 3"), Code: 2},
		{Name: "abr ignores -report", Args: strings.Fields("-workload abr -dur 2s -report $DIR/r.json"), Code: 2,
			Files: []string{"r.json"}},
		{Name: "game ignores -tracefile", Args: strings.Fields("-workload game -dur 1s -tracefile $DIR/t.json"), Code: 2,
			Files: []string{"t.json"}},
		{Name: "unwritable report", Args: strings.Fields("-workload bulk -dur 1s -report $DIR/no/r.json -tracefile $DIR/t.json"), Code: 1,
			Files: []string{"no/r.json", "t.json"}},
		{Name: "unwritable capture", Args: strings.Fields("-workload bulk -dur 1s -report $DIR/r.json -capture $DIR/no/c.csv"), Code: 1,
			Files: []string{"r.json", "no/c.csv"}},

		{Name: "bulk", Args: strings.Fields("-workload bulk -dur 1s -capture $DIR/c.csv -report $DIR/r.json -tracefile $DIR/t.json"),
			Files: []string{"c.csv", "r.json", "t.json"}},
		{Name: "video", Args: strings.Fields("-workload video -dur 1s -report $DIR/r.json"),
			Files: []string{"r.json"}},
		{Name: "web", Args: strings.Fields("-workload web -pages 1 -trace lowband-driving -tracefile $DIR/t.json"),
			Files: []string{"t.json"}},
		{Name: "abr", Args: strings.Fields("-workload abr -dur 4s -policy objectmap")},
		{Name: "game", Args: strings.Fields("-workload game -dur 1s -policy priority")},
	})
}

// TestUsageNamesEveryPolicy checks that -policy's help lists every
// steering policy core.NewPolicy accepts.
func TestUsageNamesEveryPolicy(t *testing.T) {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v: %s", err, out)
	}
	_, help, _ := strings.Cut(string(out), "-policy string\n")
	_, list, _ := strings.Cut(help, "(")
	list, _, _ = strings.Cut(list, ")")
	listed := strings.Split(list, ", ")
	for _, n := range core.PolicyNames() {
		if !slices.Contains(listed, n) {
			t.Errorf("-policy help lists %q, missing policy %q", listed, n)
		}
	}
}
