// Package video implements the paper's real-time scalable-video
// workload (§3.3): a sender that encodes each frame as three SVC
// spatial layers with target bitrates of 400, 4100, and 7500 kbps and
// transmits the layers as three separate messages (30 fps) over an
// unreliable connection, and a receiver that applies the paper's
// decode rule — after layer 0 of a frame arrives, wait 60 ms or until
// layer 0 of the next two frames arrives, then decode the frame at the
// highest layer whose SVC dependencies are satisfied.
//
// Frame quality is scored with an SSIM table per decoded layer,
// standing in for the VP9-SVC encodings of the MOT17 sequence the
// paper used (the experiments depend only on the ordering and rough
// spacing of per-layer quality, not on pixel content).
package video

import (
	"fmt"
	"time"

	"hvc/internal/metrics"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/telemetry"
	"hvc/internal/transport"
)

// Layers is the number of SVC spatial layers.
const Layers = 3

// LayerBitrates are the per-layer target bitrates in bits per second;
// they sum to the paper's cumulative 12 Mbps.
var LayerBitrates = [Layers]float64{400e3, 4.1e6, 7.5e6}

// SSIMByLayer scores a frame decoded up to a given layer. Layer 0
// alone is watchable but soft; each enhancement layer adds quality.
// Values chosen to sit in the band Fig. 2 reports.
var SSIMByLayer = [Layers]float64{0.880, 0.948, 0.976}

// Every stream runs at fps frames a second, and the receiver holds a
// frame at most decodeWait (the paper's 60 ms) after its layer 0
// arrives.
const (
	fps        = 30
	decodeWait = 60 * time.Millisecond
)

// Config parameterizes one video session.
type Config struct {
	// Duration is how long the sender streams.
	Duration time.Duration
	// KeyframeInterval resets the inter-frame SVC dependency every N
	// frames (a real encoder's periodic keyframes); 0 means 30.
	KeyframeInterval int
}

func (cfg *Config) fillDefaults() {
	if cfg.KeyframeInterval == 0 {
		cfg.KeyframeInterval = 30
	}
	if cfg.Duration <= 0 {
		panic("video: Config.Duration must be positive")
	}
}

// frameCount is how many frames a stream of the configured duration
// holds.
func (cfg *Config) frameCount() int {
	return int(cfg.Duration / (time.Second / fps))
}

// layerMsg identifies one layer of one frame on the wire.
type layerMsg struct {
	frame int
	layer int
}

// Sender paces frames onto an unreliable connection. Each layer is one
// message whose priority equals its layer index, which is exactly the
// application input the paper's priority-aware steering consumes.
type Sender struct {
	loop   *sim.Loop
	conn   *transport.Conn
	cfg    Config
	stream uint32
	frames int
	sizes  [Layers]int
	// msgs holds every message's payload, frame-major; messages carry
	// pointers into it. sent counts the frames sent so far.
	msgs []layerMsg
	sent int
	// ticks schedules the stream's frames; only the next one is queued.
	ticks sim.Lane
}

// NewSender builds a sender over conn (which must be unreliable — the
// paper streams over UDP).
func NewSender(loop *sim.Loop, conn *transport.Conn, cfg Config) *Sender {
	cfg.fillDefaults()
	s := &Sender{loop: loop, conn: conn, cfg: cfg, stream: conn.NewStream()}
	for l := range s.sizes {
		s.sizes[l] = int(LayerBitrates[l] / fps / 8)
	}
	s.frames = cfg.frameCount()
	return s
}

// FrameCount reports how many frames the sender will emit.
func (s *Sender) FrameCount() int { return s.frames }

// Start schedules the whole stream: one tick per frame, three
// messages per tick. The ticks fire in frame order, so they share one
// callback that counts them.
func (s *Sender) Start() {
	interval := time.Second / fps
	s.msgs = make([]layerMsg, s.frames*Layers)
	s.ticks = sim.NewLane(s.loop, s.sendFrame)
	for f := 0; f < s.frames; f++ {
		s.ticks.Push(time.Duration(f) * interval)
	}
}

func (s *Sender) sendFrame() {
	for l := 0; l < Layers; l++ {
		lm := &s.msgs[s.sent*Layers+l]
		*lm = layerMsg{frame: s.sent, layer: l}
		s.conn.SendMessage(s.stream, packet.Priority(l), s.sizes[l], lm)
	}
	s.sent++
}

// Receiver applies the decode rule and accumulates the latency and
// SSIM distributions Fig. 2 plots.
type Receiver struct {
	loop   *sim.Loop
	cfg    Config
	tracer *telemetry.Tracer

	// frames holds every frame of the stream, sized once from the
	// configured duration.
	frames []frameState

	// due lists the frame of every decode timer armed, in arming order;
	// entries before dueHead are spent, and a stopped one reads -1. The
	// timers share decodeFn. The wait is constant, so arming order is
	// firing order: the timer firing is the first live entry (DESIGN.md
	// §6, "The apps allocate per session").
	due      []int
	dueHead  int
	decodeFn func()

	// Latency and SSIM are distributions over decoded frames, in ms
	// and SSIM units respectively.
	Latency metrics.Distribution
	SSIM    metrics.Distribution

	// Decoded and Frozen count frames decoded versus never decoded by
	// stream end.
	Decoded int
}

type frameState struct {
	got    [Layers]bool
	sentAt time.Duration
	l0At   time.Duration
	// timer is the frame's latest decode timer and armed its index in
	// due. A duplicate layer 0 arms a second timer without stopping the
	// first, which still fires, as a no-op once the frame has decoded.
	timer    sim.Timer
	armed    int
	decodedL int // -1 until decoded
}

// NewReceiver builds a receiver; attach it to the receiving connection
// with Attach.
func NewReceiver(loop *sim.Loop, cfg Config) *Receiver {
	cfg.fillDefaults()
	n := cfg.frameCount()
	r := &Receiver{loop: loop, cfg: cfg, frames: make([]frameState, n), due: make([]int, 0, n)}
	for f := range r.frames {
		r.frames[f].decodedL = -1
	}
	r.decodeFn = r.decodeDue
	r.Latency.Grow(n)
	r.SSIM.Grow(n)
	return r
}

// SetTracer installs the telemetry hook; nil disables tracing.
func (r *Receiver) SetTracer(t *telemetry.Tracer) { r.tracer = t }

// Attach installs the receiver as conn's message handler.
func (r *Receiver) Attach(conn *transport.Conn) {
	conn.OnMessage(func(_ *transport.Conn, m transport.Message) { r.onMessage(m) })
}

// deadline is the decode rule's worst-case wait: decodeWait after layer
// 0 arrives, which itself may trail the send by up to two frame
// intervals before the next-two-frames condition fires. A frame decoded
// within it is a telemetry "hit"; later, a "miss" (visible freeze).
func (r *Receiver) deadline() time.Duration {
	return decodeWait + 2*time.Second/fps
}

func (r *Receiver) onMessage(m transport.Message) {
	lm, ok := m.Data.(*layerMsg)
	if !ok {
		panic(fmt.Sprintf("video: unexpected message payload %T", m.Data))
	}
	fs := r.frame(lm.frame)
	if fs == nil {
		panic(fmt.Sprintf("video: frame %d of a %d-frame stream", lm.frame, len(r.frames)))
	}
	if fs.decodedL >= 0 {
		return // frame already decoded; late enhancement data discarded
	}
	fs.got[lm.layer] = true
	fs.sentAt = m.SentAt
	if lm.layer == 0 {
		fs.l0At = r.loop.Now()
		fs.armed = len(r.due)
		r.due = append(r.due, lm.frame)
		fs.timer = r.loop.After(decodeWait, r.decodeFn)
		// Layer 0 of frames f-1 and f-2 may be waiting on us — and if
		// our own successors already arrived (reordering), this frame
		// can decode immediately too.
		r.maybeTriggerEarlier(lm.frame)
	}
}

// frame returns frame f's state, nil when the stream has no such frame.
func (r *Receiver) frame(f int) *frameState {
	if f < 0 || f >= len(r.frames) {
		return nil
	}
	return &r.frames[f]
}

// maybeTriggerEarlier decodes frames f-2 and f-1 early when their
// wait condition ("layer 0 of the next two frames arrived") now holds.
func (r *Receiver) maybeTriggerEarlier(f int) {
	for _, earlier := range []int{f - 2, f - 1, f} {
		fs := r.frame(earlier)
		if fs == nil || fs.decodedL >= 0 || !fs.got[0] {
			continue
		}
		if r.l0Arrived(earlier+1) && r.l0Arrived(earlier+2) {
			r.decode(earlier)
		}
	}
}

func (r *Receiver) l0Arrived(f int) bool {
	fs := r.frame(f)
	return fs != nil && (fs.got[0] || fs.decodedL >= 0)
}

// decodeDue runs when a decode timer fires: the earliest entry of due
// not stopped names its frame.
func (r *Receiver) decodeDue() {
	for r.due[r.dueHead] < 0 {
		r.dueHead++
	}
	f := r.due[r.dueHead]
	r.dueHead++
	r.decode(f)
}

// decode finalizes a frame at the highest layer whose SVC dependency
// chain is intact: all lower layers of this frame received, and the
// same layer decoded in the previous frame (reset at keyframes).
func (r *Receiver) decode(f int) {
	fs := r.frame(f)
	if fs == nil || fs.decodedL >= 0 || !fs.got[0] {
		return
	}
	if fs.timer.Stop() {
		r.due[fs.armed] = -1
	}

	level := 0
	for l := 1; l < Layers; l++ {
		if !fs.got[l] {
			break
		}
		if !r.prevSupports(f, l) {
			break
		}
		level = l
	}
	fs.decodedL = level
	r.Decoded++
	latency := r.loop.Now() - fs.sentAt
	r.Latency.AddDuration(latency)
	r.SSIM.Add(SSIMByLayer[level])
	if r.tracer.Enabled() {
		result := "hit"
		if latency > r.deadline() {
			result = "miss"
		}
		r.tracer.Emit(telemetry.Event{
			Layer: telemetry.LayerApp, Name: telemetry.EvFrameDecode,
			Msg: uint64(f), Dur: latency, Value: float64(level), Detail: result,
		})
		r.tracer.Count("video_frames_decoded_total", 1, "result", result)
		r.tracer.SetGauge("video_ssim_last", SSIMByLayer[level])
	}
	// Drop per-layer state we no longer need (keep decodedL for the
	// dependency checks of the next frames).
	fs.timer = sim.Timer{}
}

// prevSupports reports whether frame f may decode layer l given frame
// f-1's decode level. Keyframes start a fresh dependency chain.
func (r *Receiver) prevSupports(f, l int) bool {
	if f%r.cfg.KeyframeInterval == 0 {
		return true
	}
	prev := r.frame(f - 1)
	return prev != nil && prev.decodedL >= l
}

// Frozen reports frames sent but never decoded, given the sender's
// frame count. Call it after the simulation drains.
func (r *Receiver) Frozen(sent int) int { return sent - r.Decoded }
