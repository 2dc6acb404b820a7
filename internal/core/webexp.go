package core

import (
	"cmp"
	"fmt"
	"time"

	"hvc/internal/app/web"
	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/metrics"
	"hvc/internal/packet"
	"hvc/internal/telemetry"
	"hvc/internal/transport"
)

// WebConfig parameterizes the Table 1 experiment: sequential page
// loads over eMBB+URLLC with two background flows running throughout.
type WebConfig struct {
	Seed int64
	// Trace names the eMBB trace; Table 1 uses "lowband-stationary"
	// and "lowband-driving".
	Trace string
	// Policy is one of PolicyEMBBOnly, PolicyDChannel, or
	// PolicyDChannelPriority. With PolicyDChannelPriority the
	// background flows are stamped bulk (the paper's flow-priority
	// input); with PolicyDChannel they compete unhinted.
	Policy string
	// Pages is the corpus size (default 30) and Loads the number of
	// loads per page (default 5), per the paper's methodology.
	Pages int
	Loads int
	// Background disables the two competing flows when false is
	// explicitly configured via NoBackground.
	NoBackground bool
	// Fault is an optional scenario in the internal/fault grammar
	// (empty or "none" disables injection), so fleet runs can load
	// pages through shared outage windows.
	Fault string
	// Tracer receives cross-layer telemetry for the run; nil disables
	// tracing.
	Tracer *telemetry.Tracer
}

// WebResult reports one web experiment.
type WebResult struct {
	Trace, Policy string
	// MeanPLT is the mean over every load of every page, the Table 1
	// statistic.
	MeanPLT time.Duration
	// PLT is the full distribution in ms.
	PLT metrics.Distribution
	// BgUploads and BgDownloads count completed background transfers.
	BgUploads, BgDownloads int
}

// RunWeb executes the experiment: each page loaded Loads times in
// sequence, with a short gap between loads and background flows (when
// enabled) running for the whole experiment.
func RunWeb(cfg WebConfig) (WebResult, error) {
	if !ValidPolicy(cfg.Policy) || cfg.Policy == PolicyPriority {
		return WebResult{}, fmt.Errorf("core: web does not support policy %q", cfg.Policy)
	}
	cfg.Pages, cfg.Loads = cmp.Or(cfg.Pages, 30), cmp.Or(cfg.Loads, 5)
	tr, err := NewTrace(cfg.Trace, cfg.Seed, 5*time.Minute)
	if err != nil {
		return WebResult{}, err
	}
	spec, err := fault.ParseSpec(cfg.Fault)
	if err != nil {
		return WebResult{}, err
	}

	w := NewWorld(cfg.Seed, cellular(tr))
	loop, g := w.Loop, w.Group
	if err := w.Observe(cfg.Tracer, spec, "web trace=%s policy=%s seed=%d", cfg.Trace, cfg.Policy, cfg.Seed); err != nil {
		return WebResult{}, err
	}

	web.Serve(w.Server, func() transport.Config { // the paper uses TCP CUBIC throughout
		return transport.Config{CC: cc.NewCubic(), Steer: mustPolicy(cfg.Policy, g, channel.B)}
	})

	pageCfg := func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: mustPolicy(cfg.Policy, g, channel.A)}
	}

	res := WebResult{Trace: cfg.Trace, Policy: cfg.Policy}

	var bg *web.Background
	if !cfg.NoBackground {
		bgPrio := packet.Priority(0)
		if cfg.Policy == PolicyDChannelPriority {
			bgPrio = packet.PriorityBulk
		}
		bg = web.StartBackground(w.Client, func() transport.Config {
			return transport.Config{
				CC:           cc.NewCubic(),
				Steer:        mustPolicy(cfg.Policy, g, channel.A),
				FlowPriority: bgPrio,
			}
		})
	}

	corpus := web.GenerateCorpus(cfg.Seed+1000, cfg.Pages)
	const gap = 200 * time.Millisecond

	// Load pages strictly in sequence: page 0 load 0..L-1, page 1 ...
	var runLoad func(page, iter int)
	done := false
	runLoad = func(page, iter int) {
		if page >= len(corpus) {
			done = true
			loop.Stop()
			return
		}
		web.LoadWith(w.Client, pageCfg(), corpus[page], web.LoadOptions{Tracer: cfg.Tracer}, func(r web.LoadResult) {
			res.PLT.AddDuration(r.PLT)
			next := func() {
				if iter+1 < cfg.Loads {
					runLoad(page, iter+1)
				} else {
					runLoad(page+1, 0)
				}
			}
			loop.After(gap, next)
		})
	}
	runLoad(0, 0)
	w.Run(4 * time.Hour) // generous ceiling; Stop ends it early

	if !done {
		return res, fmt.Errorf("core: web experiment did not finish (%d loads done)", res.PLT.N())
	}
	if bg != nil {
		bg.Stop()
		res.BgUploads, res.BgDownloads = bg.Uploads, bg.Downloads
	}
	res.MeanPLT = time.Duration(res.PLT.Mean() * float64(time.Millisecond))
	return res, nil
}
