// Package iot implements the industrial-automation workload that
// motivates wireless TSN in §2.2: periodic closed control loops —
// sensor reading up, actuation command back — each of which must
// complete within its cycle deadline. The metric is the deadline miss
// rate, the quantity TSN's scheduled airtime exists to drive to zero
// while contention-based Wi-Fi lets background traffic destroy it.
package iot

import (
	"fmt"
	"time"

	"hvc/internal/metrics"
	"hvc/internal/sim"
	"hvc/internal/transport"
)

// Every plant has devices sensor/actuator pairs on a control period of
// cycle, which is also each loop's deadline; sensor readings and
// commands are msgBytes each, and the controller takes compute to
// answer a reading.
const (
	devices  = 4
	cycle    = 60 * time.Millisecond
	msgBytes = 200
	compute  = 2 * time.Millisecond
)

// Config parameterizes one plant.
type Config struct {
	// Duration is how long the plant runs.
	Duration time.Duration
}

// reading is one sensor sample on its way to the controller.
type reading struct {
	device int
	cycle  int
	sentAt time.Duration
}

// command is the controller's response, echoing the loop identity.
type command struct {
	device int
	cycle  int
	sentAt time.Duration // the originating reading's send time
}

// Plant runs the device side: every cycle each device emits a reading;
// the loop closes when the matching command returns. Create with
// NewPlant and Start it; attach the controller with ServeController.
type Plant struct {
	loop *sim.Loop
	conn *transport.Conn

	stream  uint32
	cycles  int
	started *sim.Periodic
	cycleNo int
	// readings holds every loop's reading, cycle-major; messages carry
	// pointers into it.
	readings []reading

	// LoopLatency is the closed-loop latency distribution (ms) of
	// loops that completed; Misses counts loops that exceeded the
	// cycle deadline or never completed by the end of the run.
	LoopLatency metrics.Distribution
	Completed   int
	misses      int
}

// NewPlant builds the device side over conn (an unreliable dial — a
// stale command is useless, so nothing is retransmitted).
func NewPlant(loop *sim.Loop, conn *transport.Conn, cfg Config) *Plant {
	if cfg.Duration <= 0 {
		panic("iot: Config.Duration must be positive")
	}
	p := &Plant{loop: loop, conn: conn, stream: conn.NewStream()}
	p.cycles = int(cfg.Duration / cycle)
	// Start ticks at once and then once per cycle while cycles remain,
	// so a run shorter than one cycle still sends cycle 0.
	p.readings = make([]reading, max(p.cycles, 1)*devices)
	conn.OnMessage(func(_ *transport.Conn, m transport.Message) { p.onCommand(m) })
	return p
}

// TotalLoops reports how many loops the plant will attempt.
func (p *Plant) TotalLoops() int { return p.cycles * devices }

// Start begins the cyclic schedule.
func (p *Plant) Start() {
	p.tick() // cycle 0 fires immediately
	p.started = sim.Every(p.loop, cycle, func() {
		if p.cycleNo >= p.cycles {
			p.started.Stop()
			return
		}
		p.tick()
	})
}

func (p *Plant) tick() {
	c := p.cycleNo
	p.cycleNo++
	for d := 0; d < devices; d++ {
		r := &p.readings[c*devices+d]
		*r = reading{device: d, cycle: c, sentAt: p.loop.Now()}
		p.conn.SendMessage(p.stream, 0, msgBytes, r)
	}
}

func (p *Plant) onCommand(m transport.Message) {
	cmd, ok := m.Data.(*command)
	if !ok {
		panic(fmt.Sprintf("iot: unexpected plant message %T", m.Data))
	}
	lat := p.loop.Now() - cmd.sentAt
	if lat > cycle {
		p.misses++
		return
	}
	p.Completed++
	p.LoopLatency.AddDuration(lat)
}

// MissRate reports the fraction of attempted loops that missed their
// deadline (including loops whose command never arrived). Call after
// the simulation drains.
func (p *Plant) MissRate() float64 {
	attempted := p.cycleNo * devices
	if attempted == 0 {
		return 0
	}
	return float64(attempted-p.Completed) / float64(attempted)
}

// ServeController installs the controller on the accepted connection:
// every reading is answered with a command after compute.
func ServeController(loop *sim.Loop, conn *transport.Conn) {
	c := &controller{loop: loop, conn: conn, stream: conn.NewStream()}
	c.replies = sim.NewLane(loop, c.reply)
	conn.OnMessage(c.onReading)
}

// A controller answers one connection's readings. The compute time is
// constant and a reply is never cancelled, so the replies fire in the
// order the readings arrived and share one lane.
type controller struct {
	loop   *sim.Loop
	conn   *transport.Conn
	stream uint32
	// cmds holds every command, in reading-arrival order; next indexes
	// the first not yet sent. Messages carry pointers into it: a slot is
	// never written again once sent, so a pointer into an array append
	// has since outgrown still reads its command.
	cmds    []command
	next    int
	replies sim.Lane
}

func (c *controller) onReading(_ *transport.Conn, m transport.Message) {
	r, ok := m.Data.(*reading)
	if !ok {
		return // other flows (e.g. bulk) may share the listener
	}
	c.cmds = append(c.cmds, command{device: r.device, cycle: r.cycle, sentAt: r.sentAt})
	c.replies.Push(c.loop.Now() + compute)
}

func (c *controller) reply() {
	cmd := &c.cmds[c.next]
	c.next++
	c.conn.SendMessage(c.stream, 0, msgBytes, cmd)
}
