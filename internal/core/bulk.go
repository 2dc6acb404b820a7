package core

import (
	"fmt"
	"time"

	"hvc/internal/capture"
	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/metrics"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/telemetry"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

// BulkConfig parameterizes the Fig. 1 experiment: one long-lived flow
// from client to server over eMBB+URLLC with packet steering, under a
// chosen congestion-control algorithm.
type BulkConfig struct {
	Seed     int64
	Duration time.Duration
	// CC names the algorithm (see NewCC).
	CC string
	// Policy names the steering policy; Fig. 1 uses PolicyDChannel.
	Policy string
	// Fault is an optional scenario in the internal/fault grammar.
	// Empty means no faults — the paper's Fig. 1 runs on a clean
	// channel, and the determinism matrix depends on that — unlike
	// OutageConfig, where empty selects the default blackout schedule.
	Fault string
	// EMBB overrides the eMBB trace; nil means the paper's fixed
	// 50 ms / 60 Mbps channel.
	EMBB *trace.Trace
	// CaptureEvery, when positive, attaches a channel sampler at that
	// cadence; the result's Capture field exposes the recorded series.
	CaptureEvery time.Duration
	// Tracer receives cross-layer telemetry for the run; nil disables
	// tracing. The runner binds the run's virtual clock and announces a
	// run boundary, so one tracer may span several runs.
	Tracer *telemetry.Tracer
}

// BulkResult reports one bulk run.
type BulkResult struct {
	CC     string
	Policy string
	// Mbps is the receiver goodput averaged over the whole run, as
	// Fig. 1a reports.
	Mbps float64
	// RTT holds every RTT sample the sender took (value in ms),
	// Fig. 1b's time series.
	RTT metrics.TimeSeries
	// RTTChannels labels each RTT sample's data channel, aligned with
	// RTT's points.
	RTTChannels []string
	// Retransmits and RTOs summarize loss-recovery activity.
	Retransmits int
	RTOs        int
	// ChannelShare counts data+control packets per channel at the
	// client.
	ChannelShare map[string]int
	// Capture holds per-channel time series when BulkConfig.CaptureEvery
	// was set; nil otherwise.
	Capture *capture.Sampler
}

// RunBulk executes the experiment and blocks until the virtual clock
// reaches cfg.Duration.
func RunBulk(cfg BulkConfig) (BulkResult, error) {
	if cfg.Duration <= 0 {
		return BulkResult{}, fmt.Errorf("core: bulk duration must be positive")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyDChannel
	}
	embb := cfg.EMBB
	if embb == nil {
		embb = fixedEMBB()
	}
	alg, err := NewCC(cfg.CC)
	if err != nil {
		return BulkResult{}, err
	}
	spec, err := fault.ParseSpec(cfg.Fault)
	if err != nil {
		return BulkResult{}, err
	}

	loop := sim.NewLoop(cfg.Seed)
	g := Cellular(loop, embb)
	client := transport.NewEndpoint(loop, g, channel.A)
	server := transport.NewEndpoint(loop, g, channel.B)

	cfg.Tracer.BeginRun(fmt.Sprintf("bulk cc=%s policy=%s seed=%d", cfg.CC, cfg.Policy, cfg.Seed))
	cfg.Tracer.BindClock(loop.Now)
	g.SetTracer(cfg.Tracer)
	client.SetTracer(cfg.Tracer)
	server.SetTracer(cfg.Tracer)

	if !spec.Empty() {
		if err := fault.Inject(loop, g, spec, cfg.Tracer); err != nil {
			return BulkResult{}, err
		}
	}

	res := BulkResult{CC: cfg.CC, Policy: cfg.Policy}
	if cfg.CaptureEvery > 0 {
		res.Capture = capture.NewSampler(loop, g, cfg.CaptureEvery)
	}

	var srv *transport.Conn
	server.Listen(func() transport.Config {
		ccSrv, _ := NewCC("cubic") // server sends only ACKs; CC idle
		return transport.Config{CC: ccSrv, Steer: mustPolicy(cfg.Policy, g, channel.B)}
	}, func(c *transport.Conn) { srv = c })

	steer := steering.NewCounter(mustPolicy(cfg.Policy, g, channel.A))
	conn := client.Dial(transport.Config{CC: alg, Steer: steer})

	conn.OnRTTSample(func(now, rtt time.Duration, ch string) {
		res.RTT.Add(now, float64(rtt)/float64(time.Millisecond))
		res.RTTChannels = append(res.RTTChannels, ch)
	})

	// Offer more data than the channels can move in cfg.Duration so
	// the flow never goes idle: eMBB peak is well under 1 Gbps.
	size := int(1e9 / 8 * cfg.Duration.Seconds())
	conn.SendMessage(conn.NewStream(), 0, size, nil)

	loop.RunUntil(cfg.Duration)
	transport.CheckLedger(client, server)
	if res.Capture != nil {
		res.Capture.Stop()
	}

	if srv != nil {
		res.Mbps = metrics.Mbps(float64(srv.Stats().BytesReceived) * 8 / cfg.Duration.Seconds())
	}
	res.Retransmits = conn.Stats().Retransmits
	res.RTOs = conn.Stats().RTOs
	res.ChannelShare = steer.Counts()
	return res, nil
}

// Fig1a runs the four-CCA comparison of Figure 1a and returns results
// in CCA order: CUBIC, BBR, Vegas, Vivace. tr (optionally nil) traces
// every run.
func Fig1a(seed int64, dur time.Duration, tr *telemetry.Tracer) ([]BulkResult, error) {
	var out []BulkResult
	for _, name := range []string{"cubic", "bbr", "vegas", "vivace"} {
		r, err := RunBulk(BulkConfig{Seed: seed, Duration: dur, CC: name, Tracer: tr})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig1b runs the BBR RTT-trace experiment of Figure 1b. tr (optionally
// nil) traces the run.
func Fig1b(seed int64, dur time.Duration, tr *telemetry.Tracer) (BulkResult, error) {
	return RunBulk(BulkConfig{Seed: seed, Duration: dur, CC: "bbr", Tracer: tr})
}

// AblationHVCAwareCC runs the §3.2 remedy: each delay-sensitive CCA
// with and without the HVC-aware sample filter, same setup as Fig. 1a.
func AblationHVCAwareCC(seed int64, dur time.Duration, tr *telemetry.Tracer) (plain, aware []BulkResult, err error) {
	for _, name := range []string{"bbr", "vegas", "vivace"} {
		p, err := RunBulk(BulkConfig{Seed: seed, Duration: dur, CC: name, Tracer: tr})
		if err != nil {
			return nil, nil, err
		}
		a, err := RunBulk(BulkConfig{Seed: seed, Duration: dur, CC: "hvc-" + name, Tracer: tr})
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, p)
		aware = append(aware, a)
	}
	return plain, aware, nil
}
