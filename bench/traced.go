package main

import (
	"fmt"
	"os"
	"time"

	"hvc/internal/sweep"
	"hvc/internal/telemetry"
)

// runTraced is the traced child: it produces every per-layer metric
// and no end-to-end one. Failed counts fidelity guards — places where
// tracing, decorating or re-driving changed a simulated result.
func runTraced(w workload, cfg childConfig) (childResult, error) {
	sp := newSpans()
	j, err := w.prepare(cfg.seed, cfg.quick, sp)
	if err != nil {
		return childResult{}, err
	}
	res := childResult{Units: j.units, PerLayer: map[string]float64{}}
	out := res.PerLayer
	guard := func(failed int, what string) {
		res.Attempted++
		if failed > 0 {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %d mismatches", what, failed))
		}
	}
	res.note(j.rep(nil)) // warm-up

	// Instrument 3 brackets the two untraced phases: the real rep with
	// spans around its public calls, and the traceable form untraced.
	prof, err := startProfile()
	if err != nil {
		return childResult{}, err
	}
	end := sp.begin("rep")
	ref := j.rep(sp)
	end()
	res.note(ref)
	res.Attempted += ref.attempted
	res.Failed += ref.failed

	// Instrument 1: the traceable form untraced, then with the counting
	// sink attached; the ratio of the two walls is the tracing overhead.
	end = sp.begin("untraced")
	var failedPlain int
	plain := measure(func() { failedPlain = j.traceable(nil, sp, ref) })
	end()
	if err := prof.stop(out); err != nil {
		return childResult{}, err
	}
	guard(failedPlain, "untraced re-run vs rep")

	var c counts
	var failedTraced int
	traced := measure(func() { failedTraced = j.traceable(telemetry.New(&c), nil, ref) })
	guard(failedTraced, "traced run vs rep")
	c.metrics(out)
	guard(c.violations(), "count conservation")
	out["netem.wall_ns_per_delivered"] = plain.WallS * 1e9 / float64(max(c.delivered, 1))
	out["netem.mallocs_per_kdelivered"] = float64(plain.Mallocs) * 1e3 / float64(max(c.delivered, 1))
	out["trace.overhead_frac"] = traced.WallS/plain.WallS - 1

	if j.cached != nil {
		guard(j.cached(sp, ref), "cached re-run vs rep")
	}

	// Instrument 2b: the decorated bulk twin, a quarter of Fig. 1a.
	twinDur := 15 * time.Second
	scale := 1
	if cfg.quick {
		twinDur, scale = 2*time.Second, 20
	}
	end = sp.begin("twin")
	attempted, failed, errs := runTwin(cfg.seed, twinDur, sp)
	end()
	res.Attempted += attempted
	res.Failed += failed
	res.Errors = append(res.Errors, errs...)

	// Instrument 2c.
	guard(leafDrives(cfg.seed, scale, out), "leaf drive left its regime")

	// Instruments 2a and 2b, read back from the recorder.
	perEntry := func(span string, unit time.Duration) float64 {
		d, n := sp.total(span)
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	for _, name := range append(append([]string{}, fig1aCCAs...), table1Policies...) {
		out[spanName("core.call_s.", name)] = perEntry(spanName("core.call.", name), time.Second)
	}
	out["core.call_ms.video"] = perEntry("core.call.video", time.Millisecond)
	out["sweep.call_s"] = perEntry("sweep.call", time.Second)
	out["arena.call_s"] = perEntry("arena.call", time.Second)
	out["fleet.call_s"] = perEntry("fleet.call", time.Second)
	out["spec.parse_us"] = perEntry("spec.parse", time.Microsecond)
	out["report.render_ms"] = perEntry("report.render", time.Millisecond)
	out["sweep.cached_us_per_cell"] = perEntry("sweep.cached", time.Microsecond) / float64(len(table1Policies))

	stepTotal, steps := sp.total("sim.step")
	ccBusy, ccCalls := sp.total("cc.call")
	steerBusy, steerCalls := sp.total("steering.pick")
	out["sim.steps"] = float64(steps)
	out["sim.step_s"] = stepTotal.Seconds()
	out["cc.calls"] = float64(ccCalls)
	out["cc.busy_s"] = ccBusy.Seconds()
	out["steering.calls"] = float64(steerCalls)
	out["steering.busy_s"] = steerBusy.Seconds()
	out["datapath.self_s"] = sp.self("sim.step").Seconds()

	res.Spans = sp.rows()
	return res, nil
}

// cachedSweep times a second sweep.Run over a warm cache directory and
// reports whether its matrix still renders to the same digest.
func cachedSweep(spec sweep.Spec, sp *spans, want string) (failed int) {
	// In the working directory, not the system's temp directory: the
	// driver lets a run write only inside its checkout.
	dir, err := os.MkdirTemp(".", ".bench_build-sweepcache-")
	if err != nil {
		return 1
	}
	defer os.RemoveAll(dir)
	opt := sweep.Options{Workers: 1, CacheDir: dir}
	if _, err := sweep.Run(spec, opt); err != nil { // fills the cache
		return 1
	}
	end := sp.begin("sweep.cached")
	m, err := sweep.Run(spec, opt)
	end()
	if err != nil {
		return 1
	}
	if d, err := matrixDigest(m); err != nil || d != want {
		return 1
	}
	return 0
}
