// Package game implements the cloud-gaming / XR workload the paper's
// introduction motivates (cloud gaming needs <100 ms input latency, XR
// <20 ms): a client streams small input events upstream while the
// server streams rendered frames downstream, over one unreliable
// connection. The headline metric is input-to-display latency — the
// time from an input event leaving the client to the first frame that
// reflects it being fully displayed — which exercises both directions
// of the HVC pair at once: inputs crave the low-latency channel,
// frames need the wide one.
package game

import (
	"fmt"
	"time"

	"hvc/internal/metrics"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/transport"
)

// The session's shape: the server renders fps frames a second of
// frameBytes each (10 Mbps at 60 fps), and a frame reflects an input
// renderDelay (server-side game/render time) after it arrives. The
// client sends inputHz input events a second of inputBytes each. Inputs
// carry priority 0, the thing priority-aware steering protects; frames
// carry priority 1.
const (
	fps           = 60
	frameBytes    = 20_833
	inputHz       = 60
	inputBytes    = 120
	renderDelay   = 8 * time.Millisecond
	inputPriority = packet.Priority(0)
	framePriority = packet.Priority(1)
)

// Config parameterizes one session.
type Config struct {
	// Duration is how long the session runs.
	Duration time.Duration
}

// inputMsg is one input event.
type inputMsg struct {
	seq    int
	sentAt time.Duration
}

// frameMsg is one rendered frame, carrying the newest input it
// reflects (zero-valued if no input had arrived yet).
type frameMsg struct {
	frame    int
	input    int
	inputAt  time.Duration
	hasInput bool
}

// Session runs a client and server pair. Build with NewSession after
// both transport endpoints exist, then Start.
type Session struct {
	loop *sim.Loop
	cfg  Config

	clientConn *transport.Conn
	inStream   uint32
	nextInput  int
	// inputs and frames schedule the two pre-planned streams; each
	// keeps only its next tick in the loop's queue.
	inputs, frames sim.Lane

	// Server state (attached through Attach).
	latestInput     int
	latestInputAt   time.Duration // client send time (for the metric)
	latestInputRcvd time.Duration // server arrival time (for render delay)
	hasInput        bool
	appliedInput    int // newest input already credited on a frame

	// Client-side results.
	InputToDisplay metrics.Distribution // ms
	FramesShown    int
	FramesSent     int
	acked          map[int]bool
}

// NewSession builds the client half over conn (an unreliable dial).
func NewSession(loop *sim.Loop, conn *transport.Conn, cfg Config) *Session {
	if cfg.Duration <= 0 {
		panic("game: Config.Duration must be positive")
	}
	s := &Session{
		loop:       loop,
		cfg:        cfg,
		clientConn: conn,
		inStream:   conn.NewStream(),
		acked:      make(map[int]bool),
	}
	conn.OnMessage(func(_ *transport.Conn, m transport.Message) { s.onFrame(m) })
	return s
}

// Attach installs the server half on the accepted connection: it
// consumes inputs and streams frames back down it.
func (s *Session) Attach(server *transport.Conn) {
	server.OnMessage(func(_ *transport.Conn, m transport.Message) {
		in, ok := m.Data.(inputMsg)
		if !ok {
			panic(fmt.Sprintf("game: unexpected server message %T", m.Data))
		}
		if in.seq > s.latestInput || !s.hasInput {
			s.latestInput = in.seq
			s.latestInputAt = in.sentAt
			s.latestInputRcvd = s.loop.Now()
			s.hasInput = true
		}
	})
	s.startFrames(server)
}

// Start schedules the client's input stream.
func (s *Session) Start() {
	interval := time.Second / inputHz
	n := int(s.cfg.Duration / interval)
	s.inputs = sim.NewLane(s.loop, s.sendInput)
	for i := 0; i < n; i++ {
		s.inputs.Push(time.Duration(i) * interval)
	}
}

func (s *Session) sendInput() {
	s.nextInput++
	s.clientConn.SendMessage(s.inStream, inputPriority, inputBytes,
		inputMsg{seq: s.nextInput, sentAt: s.loop.Now()})
}

func (s *Session) startFrames(server *transport.Conn) {
	interval := time.Second / fps
	stream := server.NewStream()
	n := int(s.cfg.Duration / interval)
	base := s.loop.Now() // frames start when the server attaches
	// The ticks fire in frame order, so one callback counts them.
	s.frames = sim.NewLane(s.loop, func() {
		fm := frameMsg{frame: s.FramesSent}
		// A frame reflects the newest input that arrived at least
		// renderDelay ago — and is credited only once.
		if s.hasInput && s.loop.Now()-s.latestInputRcvd >= renderDelay &&
			s.latestInput > s.appliedInput {
			fm.input = s.latestInput
			fm.inputAt = s.latestInputAt
			fm.hasInput = true
			s.appliedInput = s.latestInput
		}
		s.FramesSent++
		server.SendMessage(stream, framePriority, frameBytes, fm)
	})
	for i := 0; i < n; i++ {
		s.frames.Push(base + time.Duration(i)*interval)
	}
}

func (s *Session) onFrame(m transport.Message) {
	fm, ok := m.Data.(frameMsg)
	if !ok {
		panic(fmt.Sprintf("game: unexpected client message %T", m.Data))
	}
	s.FramesShown++
	if fm.hasInput && !s.acked[fm.input] {
		s.acked[fm.input] = true
		s.InputToDisplay.AddDuration(s.loop.Now() - fm.inputAt)
	}
}

// FramesLost reports frames sent but never fully displayed. Call after
// the simulation drains.
func (s *Session) FramesLost() int { return s.FramesSent - s.FramesShown }
