package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of comparing one end-to-end metric on one workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return r, nil
}

// worsening is how far b is worse than a as a share of a, signed so
// that positive is always worse.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	delta := (b - a) / a
	if d.better == "higher" {
		return -delta
	}
	return delta
}

// verdict judges new against old for one metric. A metric whose
// quartile spread exceeds its bound cannot show a change of the
// bound's size, so it is unresolved unless the two runs do not overlap
// at all; otherwise the medians decide. An improvement is claimed only
// when it exceeds the bound and every new sample beats every old one:
// two runs taken minutes apart on a shared box can differ by less than
// that with no change at all.
func verdict(d metricDef, old, new summary) string {
	worse := worsening(d, old.Median, new.Median)
	overlap := old.Min <= new.Max && new.Min <= old.Max
	if overlap && max(old.spread(), new.spread()) > d.bound {
		return unresolved
	}
	switch {
	case worse > d.bound:
		return regressed
	case -worse > d.bound && !overlap:
		return improved
	default:
		return unchanged
	}
}

// runCompare prints one block per workload, one row per end-to-end
// metric, and exits 1 on any regression, a higher failed_frac, a
// changed sim_digest (the two runs did not simulate the same thing, so
// their times do not compare) or a workload of old that new lacks.
func runCompare(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench -compare:", err)
		return 2
	}
	new, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench -compare:", err)
		return 2
	}
	oldByName := map[string]workloadReport{}
	for _, w := range old.Workloads {
		oldByName[w.Name] = w
	}
	inNew := map[string]bool{}

	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3]\tnew median [q1, q3]\tworse by\tbound\tverdict")
	for _, nw := range new.Workloads {
		inNew[nw.Name] = true
		ow, ok := oldByName[nw.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(not in %s)\n", nw.Name, oldPath)
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.name], nw.EndToEnd[d.name]
			v := verdict(d, o, n)
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.5g [%.5g, %.5g] n=%d\t%.5g [%.5g, %.5g] n=%d\t%+.2f%%\t%.0f%%\t%s\n",
				nw.Name, d.name, d.unit, o.Median, o.Q1, o.Q3, o.N, n.Median, n.Q1, n.Q3, n.N,
				100*worsening(d, o.Median, n.Median), 100*d.bound, v)
		}
		v := unchanged
		if nw.FailedFrac > ow.FailedFrac {
			v, code = regressed, 1
		}
		fmt.Fprintf(tw, "%s\tfailed_frac (ratio)\t%g (%d/%d)\t%g (%d/%d)\t\tmay not rise\t%s\n",
			nw.Name, ow.FailedFrac, ow.Failed, ow.Attempted, nw.FailedFrac, nw.Failed, nw.Attempted, v)
		digest := "same"
		if ow.SimDigest != nw.SimDigest {
			digest, code = "CHANGED: simulated results differ, the rows above do not compare", 1
		}
		fmt.Fprintf(tw, "%s\tsim_digest\t%.12s\t%.12s\t\t\t%s\n", nw.Name, ow.SimDigest, nw.SimDigest, digest)
	}
	for _, ow := range old.Workloads {
		if !inNew[ow.Name] {
			fmt.Fprintf(tw, "%s\t(MISSING from %s)\n", ow.Name, newPath)
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return code
}
