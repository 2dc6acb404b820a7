// Package hvc_test is the benchmark harness: one sub-benchmark per
// experiment in internal/experiments, each regenerating its table at
// paper scale and reporting every headline metric the experiment
// records via b.ReportMetric. See DESIGN.md §3 for the experiment index
// and EXPERIMENTS.md for paper-vs-measured numbers.
//
// Run with:
//
//	go test -run '^$' -bench BenchmarkExperiments -benchmem
package hvc_test

import (
	"fmt"
	"testing"

	"hvc/internal/experiments"
	"hvc/internal/sweep"
	"hvc/internal/telemetry"
)

// BenchmarkExperiments runs each experiment (BenchmarkExperiments/<exp>)
// at FullScale with seed 1. A metric reports as its report name, unit
// appended: fig1a's cubic/goodput in Mbps is "cubic/goodput_Mbps".
func BenchmarkExperiments(b *testing.B) {
	for _, name := range experiments.Order() {
		b.Run(name, func(b *testing.B) {
			var rep *telemetry.Report
			for i := 0; i < b.N; i++ {
				rep = telemetry.NewReport(name, 1)
				e := experiments.Env{Seed: 1, Scale: experiments.FullScale(), Report: rep}
				if err := experiments.Run(name, e); err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range rep.Metrics {
				unit := m.Name
				if m.Unit != "" {
					unit += "_" + m.Unit
				}
				b.ReportMetric(m.Value, unit)
			}
		})
	}
}

// BenchmarkSweep measures the sweep engine end-to-end on a video grid
// (2 policies × 2 traces × 3 seeds = 12 jobs), cold vs. cached, at 1
// and 4 workers. The cached variants bound the engine's fixed
// overhead; on a multi-core machine the worker scaling shows up in the
// cold numbers.
func BenchmarkSweep(b *testing.B) {
	spec, err := sweep.ParseSpec(
		"exp=video policy=embb-only,dchannel trace=lowband-driving,mmwave-driving seeds=1..3 dur=5s")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("cold/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(spec, sweep.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("cached/workers=%d", workers), func(b *testing.B) {
			dir := b.TempDir()
			if _, err := sweep.Run(spec, sweep.Options{Workers: workers, CacheDir: dir}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Run(spec, sweep.Options{Workers: workers, CacheDir: dir}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
