package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

const reportSchema = "hvc-bench/v1"

// A report is the full result set `go run ./bench` prints and
// `-compare` reads.
type report struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

// A workloadReport carries one workload's end-to-end summaries (from
// untraced children only) and per-layer values (from the traced child
// only).
type workloadReport struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Units float64 `json:"units_per_rep"`
	// Children and N count the untraced child processes and the timed
	// reps behind every end-to-end summary.
	Children   int                `json:"children"`
	N          int                `json:"n"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	SimDigest  string             `json:"sim_digest"`
	Errors     []string           `json:"errors,omitempty"`
	EndToEnd   map[string]summary `json:"end_to_end,omitempty"`
	PerLayer   map[string]value   `json:"per_layer,omitempty"`
	Spans      []spanRow          `json:"spans,omitempty"`
}

// A summary reports a sampled metric. With a dozen samples no tail
// percentile has ten samples beyond it, so the spread is given as
// quartiles and extremes.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize computes the quartiles as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// numbers here and a driver's agree.
func summarize(unit string, xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{Unit: unit}
	}
	quantile := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Unit: unit, Median: quantile(2), Q1: quantile(1), Q3: quantile(3),
		Min: s[0], Max: s[n-1], N: n}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	// Best effort: the file is absent off Linux and the field stays empty.
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if key, model, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				h.CPU = strings.TrimSpace(model)
				break
			}
		}
	}
	return h
}
