// Command bench is the repository's standing benchmark: four workloads
// run through the public harness functions, end-to-end metrics from
// untraced child processes, and a per-layer ledger from one traced
// child, all measured from outside the layers. See README.md.
//
//	go run ./bench                      every workload, full report as JSON
//	go run ./bench -workload arena-64   one workload, full report
//	go run ./bench -compare a.json b.json
//
// With -trace 0 or -trace 1 it runs one workload and prints one result
// line in the form BENCHMARK.json's driver reads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// processStart is as close to the child's first instruction as a Go
// program gets; set-up time counts from here.
var processStart = time.Now()

// untracedChildren is how many processes measure a workload in
// sequence. Medians moved more between processes than between reps of
// one process, so a run samples both.
const untracedChildren = 3

// runSeconds is BENCHMARK.json's run_seconds, the measuring time the
// driver passes as -seconds. It is the default so that a plain
// `go run ./bench`, baseline.json included, follows the driver's protocol.
const runSeconds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "the only input to workload generation")
	seconds := fs.Float64("seconds", runSeconds, "measuring time per workload, split over the untraced children")
	traceFlag := fs.Int("trace", -1, "0 or 1: run one workload untraced or traced and print one result line")
	quick := fs.Bool("quick", false, "smoke test: in-process, one rep, shrunk specs")
	compare := fs.Bool("compare", false, "compare two full reports: bench -compare old.json new.json")
	child := fs.Bool("child", false, "internal: run as a child process")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *child:
		res, err := runChild(childConfig{workload: *workloadName, seed: *seed,
			seconds: *seconds, traced: *traceFlag == 1, quick: *quick}, processStart)
		if err != nil {
			fmt.Fprintln(stderr, "bench child:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{w}
	}
	p := parent{seed: *seed, seconds: *seconds, quick: *quick, stderr: stderr}

	if *traceFlag >= 0 {
		if len(selected) != 1 || *traceFlag > 1 {
			fmt.Fprintln(stderr, "bench: -trace takes 0 or 1 and needs -workload")
			return 2
		}
		wr := p.runWorkload(selected[0], *traceFlag == 0, *traceFlag == 1)
		return printResultLine(wr, *traceFlag == 1, stdout, stderr)
	}

	rep := report{Schema: reportSchema, Seed: *seed, Seconds: *seconds, Quick: *quick, Host: host()}
	code := 0
	for _, w := range selected { // one after another, never concurrently
		wr := p.runWorkload(w, true, true)
		if wr.Failed > 0 || len(wr.Errors) > 0 {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return code
}

// A parent runs workloads through children and folds their results.
type parent struct {
	seed    int64
	seconds float64
	quick   bool
	stderr  io.Writer
}

// child runs one child: re-executing this binary, or in-process for
// the smoke test (a test binary cannot re-execute itself as bench).
func (p parent) child(cfg childConfig) (childResult, error) {
	if p.quick {
		return runChild(cfg, time.Now())
	}
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = p.stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", cfg.workload, err)
	}
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", cfg.workload, err)
	}
	return res, nil
}

// runWorkload measures one workload: end-to-end metrics from the
// untraced children, per-layer metrics from the traced child, never
// one from the other.
func (p parent) runWorkload(w workload, untraced, traced bool) workloadReport {
	wr := workloadReport{Name: w.name, Unit: w.unit}
	digests := map[string]bool{}
	fold := func(res childResult) {
		wr.Units = res.Units
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.Errors = append(wr.Errors, res.Errors...)
		for _, d := range res.Digests {
			digests[d] = true
			wr.SimDigest = d
		}
	}

	if untraced {
		children := untracedChildren
		if p.quick {
			children = 1
		}
		var wall, rate, mallocs, allocKB, setup []float64
		for i := 0; i < children; i++ {
			res, err := p.child(childConfig{workload: w.name, seed: p.seed,
				seconds: p.seconds / float64(children), quick: p.quick})
			if err != nil {
				wr.Errors = append(wr.Errors, err.Error())
				continue
			}
			fold(res)
			wr.Children++
			setup = append(setup, res.SetupS)
			for _, r := range res.Reps {
				wall = append(wall, r.WallS)
				rate = append(rate, res.Units/r.WallS)
				mallocs = append(mallocs, float64(r.Mallocs)/res.Units)
				allocKB = append(allocKB, float64(r.AllocBytes)/1024/res.Units)
			}
		}
		wr.N = len(wall)
		wr.EndToEnd = map[string]summary{}
		for name, xs := range map[string][]float64{"wall_s": wall, "units_per_s": rate,
			"mallocs_per_unit": mallocs, "alloc_kb_per_unit": allocKB, "setup_s": setup} {
			wr.EndToEnd[name] = summarize(unitOf(endToEnd, name), xs)
		}
	}

	if traced {
		res, err := p.child(childConfig{workload: w.name, seed: p.seed, traced: true, quick: p.quick})
		if err != nil {
			wr.Errors = append(wr.Errors, err.Error())
		} else {
			fold(res)
			wr.Spans = res.Spans
			wr.PerLayer = map[string]value{}
			for name, v := range res.PerLayer {
				wr.PerLayer[name] = value{Value: v, Unit: unitOf(perLayer, name)}
			}
		}
	}

	// One digest per workload per invocation: a rep or child that
	// simulated something else voids every op.
	if len(digests) != 1 {
		wr.Errors = append(wr.Errors, fmt.Sprintf("sim_digest differs between reps: %d distinct", len(digests)))
	}
	if len(wr.Errors) > 0 || wr.Attempted == 0 {
		wr.Attempted = max(wr.Attempted, 1)
		wr.Failed = wr.Attempted
	}
	wr.FailedFrac = float64(wr.Failed) / float64(wr.Attempted)
	return wr
}

// resultLine is the one-line form BENCHMARK.json's driver reads.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// printResultLine prints the driver's line: every end-to-end metric
// (its median) for an untraced run, every per-layer metric for a
// traced one. A run that could not produce them all prints nothing.
func printResultLine(wr workloadReport, traced bool, stdout, stderr io.Writer) int {
	line := resultLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: map[string]value{}}
	var err error
	if traced {
		for _, d := range perLayer {
			v, ok := wr.PerLayer[d.name]
			if !ok {
				err = errors.Join(err, fmt.Errorf("per-layer metric %s missing", d.name))
			}
			line.Metrics[d.name] = v
		}
	} else {
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.name]
			if s.N == 0 {
				err = errors.Join(err, fmt.Errorf("end-to-end metric %s has no samples", d.name))
			}
			line.Metrics[d.name] = value{Value: s.Median, Unit: s.Unit}
		}
	}
	for _, e := range wr.Errors {
		fmt.Fprintln(stderr, "bench:", wr.Name+":", e)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}
