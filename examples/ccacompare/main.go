// CCA comparison under packet steering: reproduce Figure 1's pathology
// (delay-based congestion control collapsing when packets switch
// channels) and the paper's §3.2 remedy (HVC-aware RTT interpretation)
// in a single run.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"hvc/internal/core"
	"hvc/internal/metrics"
)

func main() { report(os.Stdout) }

// report prints the comparison table to w.
func report(w io.Writer) {
	const dur = 20 * time.Second
	fmt.Fprintf(w, "bulk flow over eMBB(50ms/60Mbps)+URLLC(5ms/2Mbps), DChannel steering, %v\n\n", dur)
	fmt.Fprintf(w, "%-12s %10s %28s\n", "cca", "mbps", "rtt p5 / p50 / p95 (ms)")

	for _, name := range []string{"cubic", "bbr", "vegas", "vivace", "hvc-bbr", "hvc-vegas"} {
		r, err := core.RunBulk(core.BulkConfig{Seed: 3, Duration: dur, CC: name})
		if err != nil {
			panic(err)
		}
		var d metrics.Distribution
		for _, p := range r.RTT.Points() {
			d.Add(p.Value)
		}
		v := d.Values()
		fmt.Fprintf(w, "%-12s %10.2f %10.1f / %.1f / %.1f\n",
			name, r.Mbps, pct(v, 5), pct(v, 50), pct(v, 95))
	}

	fmt.Fprintln(w, "\ncubic ignores delay and fills the wide channel; bbr/vegas/vivace")
	fmt.Fprintln(w, "misread cross-channel RTT jumps as congestion and collapse; the")
	fmt.Fprintln(w, "hvc-* variants filter RTT samples by channel and recover.")
}

// pct is the p-th percentile of the sorted values v, rounding the rank
// down, or 0 when v is empty.
func pct(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[int(p/100*float64(len(v)-1))]
}
