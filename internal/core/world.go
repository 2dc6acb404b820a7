package core

import (
	"time"

	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/sim"
	"hvc/internal/telemetry"
	"hvc/internal/transport"
)

// A World is the network every experiment runs on: a loop, a channel
// group over it, and the client (side A) and server (side B) endpoints.
// Building them in that order fixes the event sequence numbers
// construction draws, and Run ends every run with its audits.
type World struct {
	Loop           *sim.Loop
	Group          *channel.Group
	Client, Server *transport.Endpoint
}

// NewRun builds the world one run over the paper's eMBB+URLLC pair
// plays out on. In this order, it realizes the eMBB trace named traceName
// (traceLen long, from seed); parses faults, a scenario in the
// internal/fault grammar (empty or "none" injects nothing); builds the
// world; and announces the run to tr under label, binding tr to the
// world's clock, channels and endpoints (nil disables tracing) before
// injecting the scenario.
func NewRun(seed int64, traceName string, traceLen time.Duration, faults string, tr *telemetry.Tracer, label string) (*World, error) {
	embb, err := NewTrace(traceName, seed, traceLen)
	if err != nil {
		return nil, err
	}
	spec, err := fault.ParseSpec(faults)
	if err != nil {
		return nil, err
	}
	w := newWorld(seed, func(loop *sim.Loop) *channel.Group { return Cellular(loop, embb) })
	tr.BeginRun(label)
	tr.BindClock(w.Loop.Now)
	w.Group.SetTracer(tr)
	w.Client.SetTracer(tr)
	w.Server.SetTracer(tr)
	if !spec.Empty() {
		if err := fault.Inject(w.Loop, w.Group, spec, tr); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// newWorld builds a world seeded with seed over channels(loop). It
// adopts what a world that finished before it handed on — free lists,
// loop and link arrays (transport.Adopt; Run retires them again).
func newWorld(seed int64, channels func(*sim.Loop) *channel.Group) *World {
	loop := sim.NewLoop(seed)
	g := channels(loop)
	w := &World{loop, g, transport.NewEndpoint(loop, g, channel.A), transport.NewEndpoint(loop, g, channel.B)}
	transport.Adopt(w.Client, w.Server)
	return w
}

// Run advances the world to until, audits the packet ledger
// (transport.CheckLedger), and hands everything the world grew — its
// free lists, the records and packets still in use, its loop's and
// links' arrays — to the next world built in the process
// (transport.Retire). The world is inert afterwards: its connections
// are closed and its loop runs and schedules nothing, but every
// counter a runner reads keeps its value.
func (w *World) Run(until time.Duration) {
	w.Loop.RunUntil(until)
	transport.CheckLedger(w.Client, w.Server)
	transport.Retire(w.Client, w.Server)
}
