package core

import (
	"fmt"
	"time"

	"hvc/internal/app/abr"
	"hvc/internal/app/game"
	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/metrics"
	"hvc/internal/transport"
)

// ABRConfig parameterizes the HTTP-adaptive-streaming experiment (the
// workload behind the paper's IANS-for-HAS citation): one streaming
// session over eMBB (trace-driven) + URLLC under a steering policy.
type ABRConfig struct {
	Seed int64
	// Media is the session's media duration.
	Media time.Duration
	// Trace names the eMBB trace ("mmwave-driving" stresses the
	// buffer; see TraceNames).
	Trace string
	// Policy names the steering policy for both directions.
	Policy string
}

// ABRResult pairs the policy with the playback summary.
type ABRResult struct {
	Policy string
	abr.Result
}

// RunABR executes one streaming session and drains playback before
// reporting.
func RunABR(cfg ABRConfig) (ABRResult, error) {
	if cfg.Media <= 0 {
		return ABRResult{}, fmt.Errorf("core: abr media duration must be positive")
	}
	if !ValidPolicy(cfg.Policy) {
		return ABRResult{}, fmt.Errorf("core: unknown steering policy %q", cfg.Policy)
	}
	tr, err := NewTrace(cfg.Trace, cfg.Seed, cfg.Media+time.Minute)
	if err != nil {
		return ABRResult{}, err
	}

	w := NewWorld(cfg.Seed, cellular(tr))
	abr.Serve(w.Server, func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: mustPolicy(cfg.Policy, w.Group, channel.B)}
	})
	conn := w.Client.Dial(transport.Config{CC: cc.NewCubic(), Steer: mustPolicy(cfg.Policy, w.Group, channel.A)})

	c := abr.NewClient(w.Loop, conn, abr.Config{Duration: cfg.Media})
	c.Start()
	// Run well past the media length so stalls resolve and playback
	// finishes.
	w.Run(cfg.Media * 4)

	return ABRResult{Policy: cfg.Policy, Result: c.Result()}, nil
}

// GameConfig parameterizes the cloud-gaming session runner (the
// workload the paper's introduction motivates).
type GameConfig struct {
	Seed     int64
	Duration time.Duration
	Trace    string
	Policy   string
}

// GameResult summarizes one session.
type GameResult struct {
	Policy         string
	InputToDisplay metrics.Distribution
	FramesShown    int
	FramesLost     int
}

// RunGame executes one cloud-gaming session over eMBB+URLLC.
func RunGame(cfg GameConfig) (GameResult, error) {
	if cfg.Duration <= 0 {
		return GameResult{}, fmt.Errorf("core: game duration must be positive")
	}
	if !ValidPolicy(cfg.Policy) {
		return GameResult{}, fmt.Errorf("core: unknown steering policy %q", cfg.Policy)
	}
	tr, err := NewTrace(cfg.Trace, cfg.Seed, cfg.Duration+time.Minute)
	if err != nil {
		return GameResult{}, err
	}

	w := NewWorld(cfg.Seed, cellular(tr))
	conn := w.Client.Dial(transport.Config{
		Steer: mustPolicy(cfg.Policy, w.Group, channel.A), Unreliable: true, MsgTimeout: 10 * time.Second,
	})
	s := game.NewSession(w.Loop, conn, game.Config{Duration: cfg.Duration})
	w.Server.Listen(func() transport.Config {
		return transport.Config{
			Steer: mustPolicy(cfg.Policy, w.Group, channel.B), Unreliable: true, MsgTimeout: 10 * time.Second,
		}
	}, func(c *transport.Conn) { s.Attach(c) })

	s.Start()
	w.Run(cfg.Duration + 10*time.Second)
	return GameResult{
		Policy:         cfg.Policy,
		InputToDisplay: s.InputToDisplay,
		FramesShown:    s.FramesShown,
		FramesLost:     s.FramesLost(),
	}, nil
}
