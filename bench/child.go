package main

import (
	"fmt"
	"runtime"
	"time"
)

// childConfig is what a child process (or, for -quick, an in-process
// call) needs: the parent passes it as flags.
type childConfig struct {
	workload string
	seed     int64
	// seconds is this child's share of the measuring time: timed reps
	// repeat until it is used up.
	seconds float64
	traced  bool
	quick   bool
}

// A childResult is one child's output, printed as one JSON line.
type childResult struct {
	Units float64 `json:"units"`
	// SetupS is child start to first timed rep: spec preparation plus
	// the cold warm-up rep.
	SetupS float64     `json:"setup_s"`
	Reps   []repSample `json:"reps,omitempty"`
	// Attempted and Failed count ops over the timed reps (untraced) or
	// over the traced run and its fidelity guards (traced).
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Digests holds every rep's sim_digest, warm-up included.
	Digests []string `json:"digests"`
	Errors  []string `json:"errors,omitempty"`

	// Traced children only.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Spans    []spanRow          `json:"spans,omitempty"`
}

// A repSample is one timed rep as measured from outside.
type repSample struct {
	WallS      float64 `json:"wall_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// measure times fn and reads the allocation counters around it. The
// collection before the clock starts keeps one rep's garbage out of the
// next rep's time.
func measure(fn func()) repSample {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return repSample{WallS: wall.Seconds(), Mallocs: m1.Mallocs - m0.Mallocs,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc}
}

func (r *childResult) note(o outcome) {
	r.Digests = append(r.Digests, o.digest)
	if o.err != nil {
		r.Errors = append(r.Errors, o.err.Error())
	}
}

// runChild is a child's whole life. start is when the process began.
func runChild(cfg childConfig, start time.Time) (childResult, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.traced {
		return runTraced(w, cfg)
	}
	j, err := w.prepare(cfg.seed, cfg.quick, nil)
	if err != nil {
		return childResult{}, err
	}
	res := childResult{Units: j.units}
	res.note(j.rep(nil)) // warm-up: caches fill, the heap grows, nothing is timed
	res.SetupS = time.Since(start).Seconds()

	for timed := 0.0; len(res.Reps) == 0 || (timed < cfg.seconds && !cfg.quick); {
		var o outcome
		s := measure(func() { o = j.rep(nil) })
		timed += s.WallS
		res.Reps = append(res.Reps, s)
		res.Attempted += o.attempted
		res.Failed += o.failed
		res.note(o)
	}
	return res, nil
}
