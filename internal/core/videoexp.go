package core

import (
	"fmt"
	"time"

	"hvc/internal/app/video"
	"hvc/internal/channel"
	"hvc/internal/metrics"
	"hvc/internal/steering"
	"hvc/internal/telemetry"
	"hvc/internal/transport"
)

// VideoConfig parameterizes the Fig. 2 experiment: a real-time SVC
// stream from client to server over eMBB+URLLC.
type VideoConfig struct {
	Seed     int64
	Duration time.Duration
	// Trace names the eMBB trace (Fig. 2 uses "lowband-driving" and
	// "mmwave-driving").
	Trace string
	// Policy names the steering policy applied to the video flow.
	Policy string
	// Fault is an optional scenario in the internal/fault grammar
	// (empty or "none" disables injection), so fleet runs can stream
	// through shared outage windows.
	Fault string
	// Tracer receives cross-layer telemetry for the run; nil disables
	// tracing.
	Tracer *telemetry.Tracer
}

// VideoResult reports one video run.
type VideoResult struct {
	Trace, Policy string
	// Latency is the decoded-frame latency distribution in ms; SSIM
	// the decoded-frame quality distribution.
	Latency metrics.Distribution
	SSIM    metrics.Distribution
	Sent    int
	Decoded int
	Frozen  int
}

// RunVideo executes one video session and drains the network before
// reporting, so late frames (the eMBB-only latency tail) are counted.
func RunVideo(cfg VideoConfig) (VideoResult, error) {
	build, ok := lookup(policyTable, cfg.Policy)
	if !ok {
		return VideoResult{}, fmt.Errorf("core: unknown steering policy %q", cfg.Policy)
	}
	return runVideo(cfg, build)
}

// runVideo is RunVideo with the policy constructor for both sides
// given as newPolicy instead of named by cfg.Policy, which only labels
// the run.
func runVideo(cfg VideoConfig, newPolicy func(*channel.Group, channel.Side) (steering.Policy, error)) (VideoResult, error) {
	if cfg.Duration <= 0 {
		return VideoResult{}, fmt.Errorf("core: video duration must be positive")
	}
	w, err := NewRun(cfg.Seed, cfg.Trace, cfg.Duration+30*time.Second, cfg.Fault, cfg.Tracer,
		fmt.Sprintf("video trace=%s policy=%s seed=%d", cfg.Trace, cfg.Policy, cfg.Seed))
	if err != nil {
		return VideoResult{}, err
	}

	vcfg := video.Config{Duration: cfg.Duration}
	recv := video.NewReceiver(w.Loop, vcfg)
	recv.SetTracer(cfg.Tracer)
	w.Server.Listen(func() transport.Config {
		return transport.Config{
			Steer:      must(newPolicy(w.Group, channel.B)),
			Unreliable: true,
			MsgTimeout: 30 * time.Second,
		}
	}, func(c *transport.Conn) { recv.Attach(c) })

	conn := w.Client.Dial(transport.Config{
		Steer:      must(newPolicy(w.Group, channel.A)),
		Unreliable: true,
		MsgTimeout: 30 * time.Second,
	})
	snd := video.NewSender(w.Loop, conn, vcfg)
	snd.Start()

	// Run past the stream's end so queued tail traffic (multi-second
	// under mmWave driving) arrives and decodes.
	w.Run(cfg.Duration + 20*time.Second)

	return VideoResult{
		Trace:   cfg.Trace,
		Policy:  cfg.Policy,
		Latency: recv.Latency,
		SSIM:    recv.SSIM,
		Sent:    snd.FrameCount(),
		Decoded: recv.Decoded,
		Frozen:  recv.Frozen(snd.FrameCount()),
	}, nil
}
