// Command tracegen emits synthetic 5G channel traces as CSV
// ("t_ms,rtt_ms,rate_mbps"), the format internal/trace reads back.
//
//	tracegen -name lowband-driving -seed 7 -dur 60s > drv.csv
//
// An unknown -name, a -dur that is not positive, or any positional
// argument exits 2 with nothing on stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hvc/internal/cli"
	"hvc/internal/core"
)

func main() {
	out := cli.New("tracegen")
	var (
		name = flag.String("name", "lowband-driving", "trace generator ("+strings.Join(core.TraceNames(), ", ")+")")
		seed = flag.Int64("seed", 1, "generator seed")
		dur  = flag.Duration("dur", time.Minute, "trace duration")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		out.Usage(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *dur <= 0 {
		out.Usage(fmt.Errorf("-dur must be positive, got %v", *dur))
	}
	tr, err := core.NewTrace(*name, *seed, *dur)
	if err != nil {
		out.Usage(fmt.Errorf("%v\navailable: %v", err, core.TraceNames()))
	}
	if err := tr.WriteCSV(os.Stdout); err != nil {
		out.Fail(fmt.Errorf("write: %v", err))
	}
	mean, p98 := tr.RTTStats()
	fmt.Fprintf(os.Stderr, "tracegen: %s: %d samples, mean RTT %v, p98 RTT %v\n",
		tr.Name, len(tr.Samples), mean.Round(time.Millisecond), p98.Round(time.Millisecond))
}
