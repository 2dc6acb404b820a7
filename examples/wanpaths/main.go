// WAN-scale HVCs (§2.3): the same steering machinery applied to
// wide-area channel pairs — terrestrial fiber + a priced cISP-style
// microwave path, and terrestrial Internet + a LEO satellite path.
// A request/response workload shows how much latency each fast-but-
// narrow path buys and, for cISP, what it costs.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/metrics"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/transport"
)

func main() { report(os.Stdout) }

// report prints the comparison table to w.
func report(w io.Writer) {
	fmt.Fprintln(w, "500 request/response exchanges (1kB up, 10kB down) per scenario")
	fmt.Fprintf(w, "%-24s %10s %10s %12s\n", "scenario", "p50_ms", "p95_ms", "dollars")

	run(w, "fiber only", func(loop *sim.Loop) (*channel.Group, func(channel.Side) steering.Policy) {
		fiber, mw := channel.CISP(loop)
		g := channel.NewGroup(fiber, mw)
		return g, func(channel.Side) steering.Policy { return steering.NewSingle(fiber) }
	})
	run(w, "fiber + cISP (50kB/s)", func(loop *sim.Loop) (*channel.Group, func(channel.Side) steering.Policy) {
		fiber, mw := channel.CISP(loop)
		g := channel.NewGroup(fiber, mw)
		return g, func(side channel.Side) steering.Policy {
			return steering.NewCostAware(g, side, loop.Now, steering.CostAwareConfig{
				Cheap: fiber.Name(), Priced: mw.Name(), BudgetBytesPerSec: 50_000,
			})
		}
	})
	run(w, "terrestrial only", func(loop *sim.Loop) (*channel.Group, func(channel.Side) steering.Policy) {
		terr, leo := channel.LEO(loop)
		g := channel.NewGroup(terr, leo)
		return g, func(channel.Side) steering.Policy { return steering.NewSingle(terr) }
	})
	run(w, "terrestrial + LEO", func(loop *sim.Loop) (*channel.Group, func(channel.Side) steering.Policy) {
		terr, leo := channel.LEO(loop)
		g := channel.NewGroup(terr, leo)
		return g, func(side channel.Side) steering.Policy {
			return steering.NewDChannel(g, side, steering.DChannelConfig{
				Wide: terr.Name(), Narrow: leo.Name(),
			})
		}
	})
}

func run(w io.Writer, name string, build func(*sim.Loop) (*channel.Group, func(channel.Side) steering.Policy)) {
	loop := sim.NewLoop(31)
	g, mkPolicy := build(loop)
	client := transport.NewEndpoint(loop, g, channel.A)
	server := transport.NewEndpoint(loop, g, channel.B)

	clientPolicy := mkPolicy(channel.A)
	server.Listen(func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: mkPolicy(channel.B)}
	}, func(c *transport.Conn) {
		c.OnMessage(func(conn *transport.Conn, m transport.Message) {
			conn.SendMessage(m.Stream, 0, 10_000, m.Data)
		})
	})

	var lat metrics.Distribution
	conn := client.Dial(transport.Config{CC: cc.NewCubic(), Steer: clientPolicy})
	conn.OnMessage(func(_ *transport.Conn, m transport.Message) {
		sentAt := m.Data.(time.Duration)
		lat.AddDuration(loop.Now() - sentAt)
	})
	st := conn.NewStream()
	for i := 0; i < 500; i++ {
		loop.At(time.Duration(i)*20*time.Millisecond, func() {
			conn.SendMessage(st, 0, 1_000, loop.Now())
		})
	}
	loop.RunUntil(15 * time.Second)

	dollars := 0.0
	if ca, ok := clientPolicy.(*steering.CostAware); ok {
		dollars = ca.Cost()
	}
	fmt.Fprintf(w, "%-24s %10.1f %10.1f %12.4f\n",
		name, lat.Percentile(50), lat.Percentile(95), dollars)
}
