// Package abr implements HTTP adaptive streaming over heterogeneous
// virtual channels: a client that downloads fixed-duration video
// chunks over the reliable transport, picks bitrates with a
// buffer-based (BBA-style) controller, and accounts startup delay,
// rebuffering, and delivered quality.
//
// This is the workload of the paper's second IANS citation (Enghardt
// et al., "Using informed access network selection to improve HTTP
// adaptive streaming performance"): HAS chunks are the "content"
// that object-granularity policies map to single channels, and the
// comparison against packet steering runs through the same policies as
// everything else in this repository.
package abr

import (
	"fmt"
	"time"

	"hvc/internal/sim"
	"hvc/internal/transport"
)

// DefaultLadder is a typical HAS bitrate ladder in bits per second.
var DefaultLadder = []float64{350e3, 1e6, 3e6, 6e6, 12e6}

// Every session streams chunkDuration-long chunks into a playback
// buffer capped at maxBuffer (a live-ish configuration where channel
// quality actually matters) and starts playing after startupChunks
// chunks. The BBA thresholds: up to reservoir of buffer the lowest
// bitrate is used; above it the rate rises linearly until the buffer
// reaches reservoir+cushion.
const (
	chunkDuration = 2 * time.Second
	maxBuffer     = 8 * time.Second
	reservoir     = 2 * time.Second
	cushion       = 4 * time.Second
	startupChunks = 1
)

// Config parameterizes one streaming session.
type Config struct {
	// Duration is the media length to stream.
	Duration time.Duration
}

// chunkReq travels to the server: a request for one chunk.
type chunkReq struct {
	index   int
	bitrate float64
	size    int
}

// Serve installs the HAS origin on ep: it answers chunkReq messages
// with the requested chunk bytes.
func Serve(ep *transport.Endpoint, cfg func() transport.Config) {
	ep.Listen(cfg, func(c *transport.Conn) {
		c.OnMessage(func(conn *transport.Conn, m transport.Message) {
			req, ok := m.Data.(chunkReq)
			if !ok {
				panic(fmt.Sprintf("abr: unexpected request %T", m.Data))
			}
			conn.SendMessage(m.Stream, m.Priority, req.size, req)
		})
	})
}

// Result summarizes one playback session.
type Result struct {
	// StartupDelay is the time from session start to first frame.
	StartupDelay time.Duration
	// RebufferTime and RebufferEvents account mid-stream stalls.
	RebufferTime   time.Duration
	RebufferEvents int
	// MeanBitrate is the size-weighted mean of downloaded chunk
	// bitrates in bits per second.
	MeanBitrate float64
	// Switches counts bitrate changes between consecutive chunks.
	Switches int
	// Chunks is the number of chunks fully downloaded.
	Chunks int
	// Played reports how much media actually played.
	Played time.Duration
}

// Client streams one session. Create with NewClient, then Start; read
// Result after the simulation has run past the session's end.
type Client struct {
	loop *sim.Loop
	conn *transport.Conn
	cfg  Config

	stream    uint32
	nextChunk int
	total     int
	lastRate  float64

	started    bool
	startAt    time.Duration
	buffer     time.Duration // media buffered and not yet played
	playedAt   time.Duration // virtual time of last buffer drain update
	stalledAt  time.Duration // when the current stall began (-1 none)
	fetching   bool
	waitTimer  sim.Timer
	res        Result
	bitrateSum float64
}

// RequestBytes is the size of one chunk request message.
const RequestBytes = 300

// NewClient builds a streaming client over conn.
func NewClient(loop *sim.Loop, conn *transport.Conn, cfg Config) *Client {
	if cfg.Duration <= 0 {
		panic("abr: Config.Duration must be positive")
	}
	c := &Client{
		loop:      loop,
		conn:      conn,
		cfg:       cfg,
		stream:    conn.NewStream(),
		total:     int(cfg.Duration / chunkDuration),
		stalledAt: -1,
	}
	conn.OnMessage(func(_ *transport.Conn, m transport.Message) { c.onChunk(m) })
	return c
}

// TotalChunks reports the session length in chunks.
func (c *Client) TotalChunks() int { return c.total }

// Start begins the session at the current virtual time.
func (c *Client) Start() {
	c.startAt = c.loop.Now()
	c.playedAt = c.loop.Now()
	c.fetchNext()
}

// Result returns the session summary. Call after the loop has drained.
func (c *Client) Result() Result {
	c.drainPlayback()
	res := c.res
	if res.Chunks > 0 {
		res.MeanBitrate = c.bitrateSum / float64(res.Chunks)
	}
	return res
}

// pickBitrate is the BBA-style map from buffer level to ladder rung.
func (c *Client) pickBitrate() float64 {
	ladder := DefaultLadder
	if c.buffer <= reservoir {
		return ladder[0]
	}
	frac := float64(c.buffer-reservoir) / float64(cushion)
	if frac >= 1 {
		return ladder[len(ladder)-1]
	}
	idx := int(frac * float64(len(ladder)))
	if idx >= len(ladder) {
		idx = len(ladder) - 1
	}
	return ladder[idx]
}

func (c *Client) fetchNext() {
	if c.fetching || c.nextChunk >= c.total {
		return
	}
	c.drainPlayback()
	if c.buffer >= maxBuffer {
		// Buffer full: wait for it to drain one chunk's worth.
		if !c.waitTimer.Active() {
			c.waitTimer = c.loop.After(chunkDuration/2, c.fetchNext)
		}
		return
	}
	rate := c.pickBitrate()
	size := int(rate * chunkDuration.Seconds() / 8)
	c.fetching = true
	c.conn.SendMessage(c.stream, 0, RequestBytes, chunkReq{
		index: c.nextChunk, bitrate: rate, size: size,
	})
}

func (c *Client) onChunk(m transport.Message) {
	req, ok := m.Data.(chunkReq)
	if !ok {
		panic(fmt.Sprintf("abr: unexpected response %T", m.Data))
	}
	c.fetching = false
	c.drainPlayback()

	c.res.Chunks++
	c.bitrateSum += req.bitrate
	if c.lastRate != 0 && c.lastRate != req.bitrate {
		c.res.Switches++
	}
	c.lastRate = req.bitrate
	c.buffer += chunkDuration
	c.nextChunk++

	if !c.started && c.res.Chunks >= startupChunks {
		c.started = true
		c.res.StartupDelay = c.loop.Now() - c.startAt
		c.playedAt = c.loop.Now()
		if c.stalledAt >= 0 {
			c.stalledAt = -1
		}
	}
	if c.started && c.stalledAt >= 0 {
		// Stall ends when a chunk arrives.
		c.res.RebufferTime += c.loop.Now() - c.stalledAt
		c.stalledAt = -1
		c.playedAt = c.loop.Now()
	}
	c.fetchNext()
}

// drainPlayback advances the playback clock: played media leaves the
// buffer; an empty buffer after startup is a stall.
func (c *Client) drainPlayback() {
	now := c.loop.Now()
	if !c.started || c.stalledAt >= 0 {
		c.playedAt = now
		return
	}
	elapsed := now - c.playedAt
	if elapsed <= 0 {
		return
	}
	if elapsed >= c.buffer {
		// Played everything buffered, then stalled (unless done).
		c.res.Played += c.buffer
		stallStart := c.playedAt + c.buffer
		c.buffer = 0
		if c.res.Played < c.cfg.Duration {
			c.stalledAt = stallStart
			c.res.RebufferEvents++
		}
	} else {
		c.buffer -= elapsed
		c.res.Played += elapsed
	}
	c.playedAt = now
}
