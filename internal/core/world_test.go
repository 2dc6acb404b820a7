package core

import (
	"runtime"
	"testing"
	"time"

	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/transport"
)

// A finished world hands its free lists to the next one, and nothing on
// them may keep it alive: not the application messages its payload
// boxes carried, and not its loop, which a reassembly record's expiry
// handle names. The first world leaves both on its free lists; while
// the next world holds what it adopted, the collector must be able to
// free the first world's loop and message.
func TestRetiredListsReleaseTheirWorld(t *testing.T) {
	freed := make(chan string, 2)
	func() {
		// Unreliable messages of three packets, all carrying msg, with
		// reassembly timeouts armed.
		w := NewWorld(1, cellular(fixedEMBB()))
		cfg := func(side channel.Side) transport.Config {
			return transport.Config{Steer: mustPolicy(PolicyDChannel, w.Group, side),
				Unreliable: true, MsgTimeout: time.Second}
		}
		got := 0
		w.Server.Listen(func() transport.Config { return cfg(channel.B) }, func(c *transport.Conn) {
			c.OnMessage(func(*transport.Conn, transport.Message) { got++ })
		})
		conn := w.Client.Dial(cfg(channel.A))
		msg := new([64]byte)
		runtime.SetFinalizer(msg, func(*[64]byte) { freed <- "message" })
		for i := 0; i < 20; i++ {
			conn.SendMessage(0, 0, 3*packet.MaxPayload, msg)
		}
		w.Run(5 * time.Second)
		if got != 20 {
			t.Fatalf("%d of 20 messages arrived", got)
		}
		runtime.SetFinalizer(w.Loop, func(*sim.Loop) { freed <- "loop" })
	}()
	// The next world adopts the lists as it is built. It sends nothing, so
	// it overwrites nothing, and it never ends, so it keeps them.
	next := NewWorld(2, cellular(fixedEMBB()))
	next.Loop.RunUntil(5 * time.Second)
	runtime.GC()
	runtime.GC()
	for want := 2; want > 0; want-- {
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of the finished world's loop and message still reachable", want)
		}
	}
	runtime.KeepAlive(next)
}
