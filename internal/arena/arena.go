package arena

import (
	"math"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/core"
	"hvc/internal/metrics"
	"hvc/internal/packet"
	"hvc/internal/sketch"
	"hvc/internal/telemetry"
	"hvc/internal/transport"
)

// jainConverged is the fairness level the convergence metric waits
// for: the run has converged at the earliest post-join epoch from
// which the per-epoch Jain index stays at or above this through the
// end of the run.
const jainConverged = 0.95

// Options carries the run knobs that are not part of the spec grammar:
// they do not change what is being measured, only how the run is
// instrumented or perturbed.
type Options struct {
	// Fault is an optional scenario in the internal/fault grammar;
	// empty means a clean channel.
	Fault string
	// Tracer receives cross-layer telemetry; nil disables tracing.
	Tracer *telemetry.Tracer
}

// A FlowResult summarizes one competitor.
type FlowResult struct {
	// CC is the flow's congestion-control algorithm.
	CC string
	// JoinAt is when the flow dialed.
	JoinAt time.Duration
	// ExtraRTT is the flow's receive-side path delay (the rttspread
	// ramp).
	ExtraRTT time.Duration
	// GoodputMbps is the flow's receiver goodput averaged over its own
	// lifetime (join to end of run).
	GoodputMbps float64
	// Share is the flow's fraction of all delivered bytes.
	Share float64
	// MeanTputMbps and StdTputMbps are the mean and standard deviation
	// of the flow's per-epoch throughput over epochs after it joined —
	// with MeanRTTms/StdRTTms these are the flow's throughput/delay
	// ellipse point.
	MeanTputMbps float64
	StdTputMbps  float64
	MeanRTTms    float64
	StdRTTms     float64
	// Retransmits and RTOs summarize the flow's loss recovery.
	Retransmits int
	RTOs        int
}

// An Epoch is one sampling window of the run.
type Epoch struct {
	// End is the epoch's closing time.
	End time.Duration
	// Tput and RTTms hold each flow's throughput (Mbps) and mean RTT
	// (ms; NaN when the flow took no sample) over the window, indexed
	// by flow.
	Tput  []float64
	RTTms []float64
	// Jain is the fairness index over Tput.
	Jain float64
}

// A Result reports one arena run.
type Result struct {
	Spec  Spec
	Flows []FlowResult
	// Jain is the fairness index over per-flow goodput.
	Jain float64
	// Converged reports whether per-epoch fairness reached and held
	// jainConverged after the last join; Convergence is how long after
	// the last join it took.
	Converged   bool
	Convergence time.Duration
	// Epochs is the full sampling series (convergence-plot data).
	Epochs []Epoch
	// Group holds the run's metrics as mergeable sketches:
	// arena/jain, arena/convergence_s, arena/flow_goodput_mbps,
	// arena/flow_share, arena/epoch_tput_mbps, arena/epoch_rtt_ms,
	// arena/retransmits.
	Group *sketch.Group
}

// Run executes the arena described by spec and blocks until the
// virtual clock reaches spec.Dur.
func Run(spec Spec, opt Options) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	w, err := core.NewRun(spec.Seed, spec.Trace, spec.Dur, opt.Fault, opt.Tracer, "arena "+spec.String())
	if err != nil {
		return Result{}, err
	}
	loop, g := w.Loop, w.Group

	// The server accepts every competitor; received-byte counts are read
	// per flow through this table.
	srvByFlow := make(map[packet.FlowID]*transport.Conn, spec.Flows)
	w.Server.Listen(func() transport.Config {
		ccSrv := cc.NewCubic() // server sends only ACKs; CC idle
		pol, _ := core.NewPolicy(spec.Policy, g, channel.B)
		return transport.Config{CC: ccSrv, Steer: pol}
	}, func(c *transport.Conn) { srvByFlow[c.Flow()] = c })

	conns := make([]*transport.Conn, spec.Flows)
	// Per-epoch accumulators, indexed by flow.
	prevBytes := make([]int64, spec.Flows)
	rttSum := make([]time.Duration, spec.Flows)
	rttN := make([]int, spec.Flows)

	for i := 0; i < spec.Flows; i++ {
		i := i
		alg, err := core.NewCC(spec.CCFor(i))
		if err != nil {
			return Result{}, err
		}
		pol, err := core.NewPolicy(spec.Policy, g, channel.A)
		if err != nil {
			return Result{}, err
		}
		joinAt := spec.JoinAt(i)
		loop.At(joinAt, func() {
			c := w.Client.Dial(transport.Config{
				CC:      alg,
				Steer:   pol,
				RxDelay: spec.ExtraDelay(i),
			})
			conns[i] = c
			c.OnRTTSample(func(now, rtt time.Duration, ch string) {
				rttSum[i] += rtt
				rttN[i]++
			})
			// Offer more data than the channels can move in the flow's
			// remaining lifetime so it never goes idle.
			size := int(1e9 / 8 * (spec.Dur - joinAt).Seconds())
			c.SendMessage(c.NewStream(), 0, size, nil)
		})
	}

	// The sampling chain closes one epoch at a time; the final partial
	// window (if Dur is not a multiple of Epoch) is dropped.
	var epochs []Epoch
	var sample func()
	sample = func() {
		e := Epoch{
			End:   loop.Now(),
			Tput:  make([]float64, spec.Flows),
			RTTms: make([]float64, spec.Flows),
		}
		for i := 0; i < spec.Flows; i++ {
			var cur int64
			if conns[i] != nil {
				if sc, ok := srvByFlow[conns[i].Flow()]; ok {
					cur = sc.Stats().BytesReceived
				}
			}
			e.Tput[i] = metrics.Mbps(float64(cur-prevBytes[i]) * 8 / spec.Epoch.Seconds())
			prevBytes[i] = cur
			e.RTTms[i] = math.NaN()
			if rttN[i] > 0 {
				e.RTTms[i] = float64(rttSum[i]) / float64(rttN[i]) / float64(time.Millisecond)
			}
			rttSum[i], rttN[i] = 0, 0
		}
		e.Jain = Jain(e.Tput)
		epochs = append(epochs, e)
		if loop.Now()+spec.Epoch <= spec.Dur {
			loop.After(spec.Epoch, sample)
		}
	}
	loop.After(spec.Epoch, sample)

	w.Run(spec.Dur)

	return summarize(spec, conns, srvByFlow, epochs), nil
}

// summarize folds the raw epoch series and final connection stats into
// the Result, including the sketch group.
func summarize(spec Spec, conns []*transport.Conn, srvByFlow map[packet.FlowID]*transport.Conn, epochs []Epoch) Result {
	res := Result{
		Spec:   spec,
		Flows:  make([]FlowResult, spec.Flows),
		Epochs: epochs,
		Group:  sketch.NewGroup(),
	}

	goodput := make([]float64, spec.Flows)
	totalBytes := 0.0
	bytes := make([]float64, spec.Flows)
	for i := range res.Flows {
		fr := &res.Flows[i]
		fr.CC = spec.CCFor(i)
		fr.JoinAt = spec.JoinAt(i)
		fr.ExtraRTT = spec.ExtraDelay(i)
		if conns[i] != nil {
			st := conns[i].Stats()
			fr.Retransmits = st.Retransmits
			fr.RTOs = st.RTOs
			if sc, ok := srvByFlow[conns[i].Flow()]; ok {
				bytes[i] = float64(sc.Stats().BytesReceived)
			}
		}
		totalBytes += bytes[i]
		life := (spec.Dur - fr.JoinAt).Seconds()
		if life > 0 {
			fr.GoodputMbps = metrics.Mbps(bytes[i] * 8 / life)
		}
		goodput[i] = fr.GoodputMbps

		// Ellipse point: moments over epochs fully after the join.
		var tput, rtt []float64
		for _, e := range epochs {
			if e.End-spec.Epoch < fr.JoinAt {
				continue
			}
			tput = append(tput, e.Tput[i])
			if !math.IsNaN(e.RTTms[i]) {
				rtt = append(rtt, e.RTTms[i])
			}
		}
		fr.MeanTputMbps, fr.StdTputMbps = moments(tput)
		fr.MeanRTTms, fr.StdRTTms = moments(rtt)
	}
	for i := range res.Flows {
		if totalBytes > 0 {
			res.Flows[i].Share = bytes[i] / totalBytes
		}
	}
	res.Jain = Jain(goodput)

	// Convergence: the earliest epoch starting at or after the last
	// join from which per-epoch fairness holds through the end.
	lastJoin := time.Duration(0)
	for i := 0; i < spec.Flows; i++ {
		if j := spec.JoinAt(i); j > lastJoin {
			lastJoin = j
		}
	}
	holdFrom := -1
	for i := len(epochs) - 1; i >= 0; i-- {
		if epochs[i].End-spec.Epoch < lastJoin || epochs[i].Jain < jainConverged {
			break
		}
		holdFrom = i
	}
	if holdFrom >= 0 {
		res.Converged = true
		res.Convergence = epochs[holdFrom].End - lastJoin
	}

	res.Group.Observe("arena/jain", res.Jain)
	if res.Converged {
		res.Group.Observe("arena/convergence_s", res.Convergence.Seconds())
	}
	for i := range res.Flows {
		res.Group.Observe("arena/flow_goodput_mbps", res.Flows[i].GoodputMbps)
		res.Group.Observe("arena/flow_share", res.Flows[i].Share)
		res.Group.Observe("arena/retransmits", float64(res.Flows[i].Retransmits))
	}
	for _, e := range epochs {
		for i := range e.Tput {
			res.Group.Observe("arena/epoch_tput_mbps", e.Tput[i])
			if !math.IsNaN(e.RTTms[i]) {
				res.Group.Observe("arena/epoch_rtt_ms", e.RTTms[i])
			}
		}
	}
	return res
}

// Jain computes the Jain fairness index (Σx)²/(n·Σx²) over xs: 1.0 is
// a perfectly even split, 1/n a single flow taking everything. An
// empty or all-zero slice reports 1 (nothing is being shared
// unfairly).
func Jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// moments returns the mean and population standard deviation of xs.
func moments(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
