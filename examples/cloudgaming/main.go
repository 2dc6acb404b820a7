// Cloud gaming over HVCs: a 10-second session streaming 60 fps frames
// down and 60 Hz inputs up over a driving 5G trace plus URLLC,
// comparing steering policies on input-to-display latency — the
// interactive metric the paper's introduction opens with (cloud gaming
// wants <100 ms; XR <20 ms).
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"hvc/internal/app/game"
	"hvc/internal/channel"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

func main() { report(os.Stdout) }

// report prints the comparison table to w.
func report(w io.Writer) {
	fmt.Fprintln(w, "10s cloud-gaming session over lowband-driving eMBB + URLLC")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %10s\n",
		"policy", "i2d_p50_ms", "i2d_p95_ms", "i2d_max_ms", "lost")
	for _, policy := range []string{"embb-only", "dchannel", "priority"} {
		s := run(policy)
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %12.0f %10d\n",
			policy,
			s.InputToDisplay.Percentile(50),
			s.InputToDisplay.Percentile(95),
			s.InputToDisplay.Max(),
			s.FramesLost())
	}
	fmt.Fprintln(w, "\ninputs are priority-0 messages; frames priority 1. priority steering")
	fmt.Fprintln(w, "pins inputs to URLLC, so control stays crisp even when eMBB degrades.")
}

func run(policy string) *game.Session {
	loop := sim.NewLoop(21)
	g := channel.NewGroup(
		channel.EMBB(loop, trace.LowbandDriving(21, 30*time.Second)),
		channel.URLLC(loop),
	)
	mk := func(side channel.Side) steering.Policy {
		switch policy {
		case "dchannel":
			return steering.NewDChannel(g, side, steering.DChannelConfig{})
		case "priority":
			return steering.NewPriority(g, side, steering.PriorityConfig{AdmitPrio: 0})
		default:
			return steering.NewSingle(g.Get(channel.NameEMBB))
		}
	}

	client := transport.NewEndpoint(loop, g, channel.A)
	server := transport.NewEndpoint(loop, g, channel.B)

	conn := client.Dial(transport.Config{Steer: mk(channel.A), Unreliable: true, MsgTimeout: 10 * time.Second})
	s := game.NewSession(loop, conn, game.Config{Duration: 10 * time.Second})
	server.Listen(func() transport.Config {
		return transport.Config{Steer: mk(channel.B), Unreliable: true, MsgTimeout: 10 * time.Second}
	}, func(c *transport.Conn) { s.Attach(c) })

	s.Start()
	loop.RunUntil(25 * time.Second)
	return s
}
