// Quickstart: build two heterogeneous virtual channels (eMBB + URLLC),
// connect a client and server transport across them with DChannel
// packet steering, and send a message each way — the minimal end-to-end
// use of the library's public surface.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/transport"
)

func main() { report(os.Stdout) }

// report prints the exchange and the channel use to w.
func report(w io.Writer) {
	// Everything runs in deterministic virtual time on one loop.
	loop := sim.NewLoop(42)

	// Two virtual channels: wide-but-slow eMBB (50 ms RTT, 60 Mbps)
	// and narrow-but-fast URLLC (5 ms RTT, 2 Mbps).
	group := channel.NewGroup(channel.EMBBFixed(loop), channel.URLLC(loop))

	// One endpoint per host; side A is the client.
	client := transport.NewEndpoint(loop, group, channel.A)
	server := transport.NewEndpoint(loop, group, channel.B)

	// The server echoes a short reply to every message it receives.
	server.Listen(func() transport.Config {
		return transport.Config{
			CC:    cc.NewCubic(),
			Steer: steering.NewDChannel(group, channel.B, steering.DChannelConfig{}),
		}
	}, func(conn *transport.Conn) {
		conn.OnMessage(func(c *transport.Conn, m transport.Message) {
			fmt.Fprintf(w, "[%8v] server: got %q (%d bytes) after %v\n",
				loop.Now().Round(time.Millisecond), m.Data, m.Size, m.Latency().Round(time.Millisecond))
			c.SendMessage(m.Stream, 0, 2_000, "pong")
		})
	})

	// The client steers with the DChannel heuristic too: small
	// messages and ACKs ride URLLC, bulk spills onto eMBB.
	conn := client.Dial(transport.Config{
		CC:    cc.NewCubic(),
		Steer: steering.NewDChannel(group, channel.A, steering.DChannelConfig{}),
	})
	conn.OnMessage(func(_ *transport.Conn, m transport.Message) {
		fmt.Fprintf(w, "[%8v] client: got %q back after %v\n",
			loop.Now().Round(time.Millisecond), m.Data, m.Latency().Round(time.Millisecond))
	})

	st := conn.NewStream()
	conn.SendMessage(st, 0, 1_000, "ping")       // small: accelerated
	conn.SendMessage(st, 2, 500_000, "big blob") // bulk: mostly eMBB

	loop.RunUntil(5 * time.Second)

	fmt.Fprintf(w, "\nchannel use (client side):\n")
	for _, ch := range group.All() {
		st := ch.Stats(channel.A)
		fmt.Fprintf(w, "  %-6s %5d packets up, %7d bytes delivered\n",
			ch.Name(), st.Sent, st.BytesDelivered)
	}
}
