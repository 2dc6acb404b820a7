package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"text/tabwriter"
	"time"

	"hvc/internal/arena"
	"hvc/internal/core"
	"hvc/internal/fault"
	"hvc/internal/pool"
	"hvc/internal/sketch"
	"hvc/internal/telemetry"
)

// ReportSchema identifies the fleet-report JSON layout.
const ReportSchema = "hvc-fleet-report/v1"

// defaultShard is the UEs-per-shard grain when Options.Shard is unset:
// coarse enough that per-shard setup amortizes, fine enough that a
// machine's cores stay busy on 1k-UE fleets.
const defaultShard = 64

// Options are the runtime knobs of a fleet run. Deliberately NOT part
// of the Spec: workers and shard size change how the fleet is
// computed, never what it computes — the report is byte-identical
// across all of them, and a matrix test holds the package to it.
type Options struct {
	// Workers is the worker-goroutine count; 0 means GOMAXPROCS.
	Workers int
	// Shard is the UEs simulated per pool job; 0 means defaultShard.
	Shard int
	// Meter, when non-nil, counts finished UEs against the fleet size
	// and receives every finished shard's sketches. Observe-only: the
	// result is byte-identical with or without it.
	Meter *telemetry.Meter
}

// A Result is one fleet run's aggregate: the canonical spec, the
// per-app UE counts, and the merged sketch group holding every
// metric's distribution. No per-UE state survives the run.
type Result struct {
	Spec  Spec
	UEs   int
	Apps  map[string]int
	Group *sketch.Group
}

// testRunUE, when non-nil, replaces session execution — the seam the
// flat-memory and aggregation tests use to measure the harness without
// paying for ten thousand simulations (the idiom sweep's testRunJob
// established).
var testRunUE func(p Profile, g *sketch.Group) error

// Run simulates the fleet: UEs shard into contiguous index blocks,
// shards fan across the worker pool, each session's metrics stream
// into a per-shard sketch group, and shard groups fold into one
// aggregate through exact merges. Memory is O(workers) shard groups
// plus one session at a time per worker — flat in the fleet size.
func Run(spec Spec, opt Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fs, err := fault.ParseSpec(spec.Fault)
	if err != nil {
		return nil, err
	}
	shard := opt.Shard
	if shard <= 0 {
		shard = defaultShard
	}
	nShards := (spec.UEs + shard - 1) / shard

	total := sketch.NewGroup()
	opt.Meter.SetTotal(spec.UEs)
	err = pool.Reduce(nShards, opt.Workers, nil,
		func(i int) (*sketch.Group, error) {
			g := sketch.NewGroup()
			lo, hi := i*shard, (i+1)*shard
			if hi > spec.UEs {
				hi = spec.UEs
			}
			for ue := lo; ue < hi; ue++ {
				p := spec.profileFor(ue, fs)
				if err := runUE(p, spec, g); err != nil {
					return nil, fmt.Errorf("ue %d (%s seed=%d): %w", ue, p.App, p.Seed, err)
				}
			}
			opt.Meter.Add(hi-lo, 0)
			return g, nil
		},
		func(i int, g *sketch.Group) {
			total.Merge(g)
			opt.Meter.Merge(g)
		})
	if err != nil {
		return nil, err
	}
	return &Result{Spec: spec, UEs: spec.UEs, Apps: spec.AppCounts(), Group: total}, nil
}

// runUE simulates one session and streams its metrics into g. A panic
// becomes a *pool.Panic with its stack, so the caller names the UE it
// happened in as it does for an error.
func runUE(p Profile, spec Spec, g *sketch.Group) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &pool.Panic{Value: r, Stack: debug.Stack()}
		}
	}()
	if testRunUE != nil {
		return testRunUE(p, g)
	}
	switch p.App {
	case AppBulk:
		r, err := core.RunBulk(core.BulkConfig{
			Seed: p.Seed, Duration: spec.Dur, CC: spec.CC,
			Policy: p.Policy, Fault: p.Fault, Trace: p.Trace,
		})
		if err != nil {
			return err
		}
		g.Observe("bulk/goodput_mbps", r.Mbps)
		g.Observe("bulk/retransmits", float64(r.Retransmits))
		g.Observe("bulk/rtos", float64(r.RTOs))
	case AppVideo:
		r, err := core.RunVideo(core.VideoConfig{
			Seed: p.Seed, Duration: spec.Dur, Trace: p.Trace,
			Policy: p.Policy, Fault: p.Fault,
		})
		if err != nil {
			return err
		}
		for _, v := range r.Latency.Values() {
			g.Observe("video/latency_ms", v)
		}
		g.Observe("video/ssim_mean", r.SSIM.Mean())
		g.Observe("video/frozen_frames", float64(r.Frozen))
	case AppWeb:
		r, err := core.RunWeb(core.WebConfig{
			Seed: p.Seed, Trace: p.Trace, Policy: p.Policy,
			Pages: spec.Pages, Loads: spec.Loads, Fault: p.Fault,
		})
		if err != nil {
			return err
		}
		for _, v := range r.PLT.Values() {
			g.Observe("web/plt_ms", v)
		}
	case AppArena:
		// Each arena UE hosts a small in-session contention: two flows of
		// the fleet's CCA joining a beat apart, so the population view
		// includes intra-UE fairness, not just across-UE spread.
		as := arena.Spec{
			Flows: 2, Seed: p.Seed,
			Mix:    []arena.MixEntry{{Name: spec.CC, Weight: 1}},
			Join:   spec.Dur / 8,
			Dur:    spec.Dur,
			Policy: p.Policy, Trace: p.Trace,
		}
		r, err := arena.Run(as, arena.Options{Fault: p.Fault})
		if err != nil {
			return err
		}
		g.Observe("arena/jain", r.Jain)
		if r.Converged {
			g.Observe("arena/convergence_s", r.Convergence.Seconds())
		}
		for _, fr := range r.Flows {
			g.Observe("arena/flow_goodput_mbps", fr.GoodputMbps)
		}
	default:
		return fmt.Errorf("fleet: unknown app %q", p.App)
	}
	g.Observe("fleet/start_offset_ms", float64(p.Offset)/float64(time.Millisecond))
	return nil
}

// reportJSON is the hvc-fleet-report/v1 wire shape. Everything in it
// is a pure function of the spec and the merged aggregate — no
// timing, worker counts, or shard sizes — which is what makes the
// byte-identity contract possible.
type reportJSON struct {
	Schema   string           `json:"schema"`
	Spec     string           `json:"spec"`
	UEs      int              `json:"ues"`
	Apps     map[string]int   `json:"apps"`
	Sketches []sketch.Summary `json:"sketches"`
}

// WriteJSON writes the hvc-fleet-report/v1 bundle: deterministic
// (encoding/json sorts map keys) and byte-identical for any worker
// count or shard size.
func (r *Result) WriteJSON(w io.Writer) error {
	rep := reportJSON{
		Schema:   ReportSchema,
		Spec:     r.Spec.String(),
		UEs:      r.UEs,
		Apps:     r.Apps,
		Sketches: r.Group.Snapshot(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteTable renders the deterministic human-readable summary: the
// fleet's composition, then one row per metric sketch.
func (r *Result) WriteTable(w io.Writer) error {
	fmt.Fprintf(w, "fleet: %s\n", r.Spec)
	fmt.Fprintf(w, "ues: %d (", r.UEs)
	for i, app := range r.Spec.apps() {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, "%s=%d", app, r.Apps[app])
	}
	fmt.Fprint(w, ")\n\n")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tn\tmean\tp50\tp95\tp99\t[min, max]\n")
	for _, s := range r.Group.Snapshot() {
		fmt.Fprintf(tw, "%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g\t[%.4g, %.4g]\n",
			s.Name, s.N, s.Mean, s.P50, s.P95, s.P99, s.Min, s.Max)
	}
	return tw.Flush()
}
