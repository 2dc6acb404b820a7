package core

import (
	"fmt"
	"time"

	"hvc/internal/channel"
	"hvc/internal/fault"
	"hvc/internal/sim"
	"hvc/internal/telemetry"
	"hvc/internal/trace"
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

// NewWorld builds a world seeded with seed over channels(loop). It
// adopts what a world that finished before it handed on — free lists,
// loop and link arrays (transport.Adopt; Run retires them again).
func NewWorld(seed int64, channels func(*sim.Loop) *channel.Group) *World {
	loop := sim.NewLoop(seed)
	g := channels(loop)
	w := &World{loop, g, transport.NewEndpoint(loop, g, channel.A), transport.NewEndpoint(loop, g, channel.B)}
	transport.Adopt(w.Client, w.Server)
	return w
}

// cellular is NewWorld's channels for the paper's eMBB+URLLC pair.
func cellular(embb *trace.Trace) func(*sim.Loop) *channel.Group {
	return func(loop *sim.Loop) *channel.Group { return Cellular(loop, embb) }
}

// Observe announces a run to tr (nil disables tracing), labelled by
// format and args as fmt.Sprintf does; binds tr to the world's clock,
// channels and endpoints; and injects spec unless it is empty.
func (w *World) Observe(tr *telemetry.Tracer, spec fault.Spec, format string, args ...any) error {
	tr.BeginRun(fmt.Sprintf(format, args...))
	tr.BindClock(w.Loop.Now)
	w.Group.SetTracer(tr)
	w.Client.SetTracer(tr)
	w.Server.SetTracer(tr)
	if spec.Empty() {
		return nil
	}
	return fault.Inject(w.Loop, w.Group, spec, tr)
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
