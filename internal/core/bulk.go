package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/metrics"
	"hvc/internal/steering"
	"hvc/internal/telemetry"
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
	// Trace names the eMBB trace (see TraceNames); empty means
	// "fixed", the paper's 50 ms / 60 Mbps channel.
	Trace string
	// Capture, when non-nil, receives per-channel time series sampled
	// every 100 ms (queue bytes, delivered bytes, drops) as CSV once the
	// run ends.
	Capture io.Writer
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
	// rttLabel holds one byte per RTT sample, aligned with RTT's
	// points: an index into rttLabels, the run's distinct channel
	// labels. RTTChannel reads them.
	rttLabel  []uint8
	rttLabels []string
	// Retransmits and RTOs summarize loss-recovery activity.
	Retransmits int
	RTOs        int
	// ChannelShare counts data+control packets per channel at the
	// client.
	ChannelShare map[string]int
}

// RTTChannel reports the channel the data of RTT sample i traveled
// on, or "" when copies traveled on several.
func (r *BulkResult) RTTChannel(i int) string { return r.rttLabels[r.rttLabel[i]] }

// addRTT records one RTT sample and its channel label. The label
// slice grows in step with the series, so it too allocates at most
// twice what it keeps.
func (r *BulkResult) addRTT(now, rtt time.Duration, ch string) {
	r.RTT.Add(now, float64(rtt)/float64(time.Millisecond))
	label := slices.Index(r.rttLabels, ch)
	if label < 0 {
		label = len(r.rttLabels)
		r.rttLabels = append(r.rttLabels, ch)
	}
	if n := len(r.rttLabel); n == cap(r.rttLabel) {
		grown := make([]uint8, n, cap(r.RTT.Points()))
		copy(grown, r.rttLabel)
		r.rttLabel = grown
	}
	r.rttLabel = append(r.rttLabel, uint8(label))
}

// RunBulk executes the experiment and blocks until the virtual clock
// reaches cfg.Duration.
func RunBulk(cfg BulkConfig) (BulkResult, error) {
	if cfg.Duration <= 0 {
		return BulkResult{}, fmt.Errorf("core: bulk duration must be positive")
	}
	cfg.Policy, cfg.Trace = cmp.Or(cfg.Policy, PolicyDChannel), cmp.Or(cfg.Trace, "fixed")
	if !ValidPolicy(cfg.Policy) {
		return BulkResult{}, fmt.Errorf("core: unknown steering policy %q", cfg.Policy)
	}
	embb, err := NewTrace(cfg.Trace, cfg.Seed, cfg.Duration+time.Second)
	if err != nil {
		return BulkResult{}, err
	}
	alg, err := NewCC(cfg.CC)
	if err != nil {
		return BulkResult{}, err
	}
	spec, err := fault.ParseSpec(cfg.Fault)
	if err != nil {
		return BulkResult{}, err
	}

	w := NewWorld(cfg.Seed, cellular(embb))
	if err := w.Observe(cfg.Tracer, spec, "bulk cc=%s policy=%s seed=%d", cfg.CC, cfg.Policy, cfg.Seed); err != nil {
		return BulkResult{}, err
	}

	res := BulkResult{CC: cfg.CC, Policy: cfg.Policy}
	var samples *sampler
	if cfg.Capture != nil {
		samples = newSampler(w.Loop, w.Group, captureEvery)
	}

	var srv *transport.Conn
	w.Server.Listen(func() transport.Config { // the server sends only ACKs; its CC idles
		return transport.Config{CC: cc.NewCubic(), Steer: mustPolicy(cfg.Policy, w.Group, channel.B)}
	}, func(c *transport.Conn) { srv = c })

	steer := steering.NewCounter(mustPolicy(cfg.Policy, w.Group, channel.A))
	conn := w.Client.Dial(transport.Config{CC: alg, Steer: steer})

	conn.OnRTTSample(res.addRTT)

	// Offer more data than the channels can move in cfg.Duration so
	// the flow never goes idle: eMBB peak is well under 1 Gbps.
	size := int(1e9 / 8 * cfg.Duration.Seconds())
	conn.SendMessage(conn.NewStream(), 0, size, nil)

	w.Run(cfg.Duration)

	if srv != nil {
		res.Mbps = metrics.Mbps(float64(srv.Stats().BytesReceived) * 8 / cfg.Duration.Seconds())
	}
	res.Retransmits = conn.Stats().Retransmits
	res.RTOs = conn.Stats().RTOs
	res.ChannelShare = steer.Counts()
	if samples != nil {
		return res, samples.writeCSV(cfg.Capture)
	}
	return res, nil
}
