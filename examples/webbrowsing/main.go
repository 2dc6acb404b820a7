// Web browsing with background flows: load a few pages over a driving
// 5G trace while a JSON uploader and downloader compete for URLLC —
// Table 1's setup in miniature, showing what the flow-priority hint
// buys.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"hvc/internal/core"
)

func main() { report(os.Stdout) }

// report prints the comparison table to w.
func report(w io.Writer) {
	fmt.Fprintln(w, "5 pages x 2 loads over lowband-driving eMBB + URLLC,")
	fmt.Fprintln(w, "with a 5 kB uploader and a 10 kB downloader running throughout")
	fmt.Fprintf(w, "%-20s %12s %12s %14s\n", "policy", "mean_plt", "p95_plt", "bg transfers")

	for _, policy := range []string{
		core.PolicyEMBBOnly,
		core.PolicyDChannel,
		core.PolicyDChannelPriority,
	} {
		r, err := core.RunWeb(core.WebConfig{
			Seed:   11,
			Trace:  "lowband-driving",
			Policy: policy,
			Pages:  5,
			Loads:  2,
		})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "%-20s %12v %10.0fms %14d\n",
			policy,
			r.MeanPLT.Round(time.Millisecond),
			r.PLT.Percentile(95),
			r.BgUploads+r.BgDownloads)
	}

	fmt.Fprintln(w, "\nembb-only leaves URLLC unused; dchannel accelerates the page but")
	fmt.Fprintln(w, "lets background JSON traffic queue on URLLC; the flow-priority hint")
	fmt.Fprintln(w, "(dchannel+priority) keeps URLLC clear for page-critical packets.")
}
