package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hvc/internal/arena"
	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/core"
	"hvc/internal/invariant"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

// worldKinds are one small run of every kind of world, each rendered
// bit for bit (fmt prints every float in its shortest exact form).
var worldKinds = []struct {
	name string
	run  func() (string, error)
}{
	{"lossy-bulk", func() (string, error) {
		r, err := core.RunBulk(core.BulkConfig{Seed: 3, Duration: 5 * time.Second, CC: "cubic",
			Policy: core.PolicyDChannel, Fault: "outage:ch=embb,at=1s,dur=500ms;burst:ch=urllc,at=2s,dur=1s"})
		return fmt.Sprintf("%+v", r), err
	}},
	{"web", func() (string, error) {
		r, err := core.RunWeb(core.WebConfig{Seed: 3, Trace: "lowband-driving",
			Policy: core.PolicyDChannelPriority, Pages: 3, Loads: 1})
		return fmt.Sprintf("%+v", r), err
	}},
	{"video", func() (string, error) {
		r, err := core.RunVideo(core.VideoConfig{Seed: 3, Duration: 2 * time.Second,
			Trace: "lowband-driving", Policy: core.PolicyDChannel})
		return fmt.Sprintf("%+v", r), err
	}},
	{"arena", func() (string, error) {
		spec, err := arena.ParseSpec("flows=4 mix=cubic,bbr seed=3 dur=5s")
		if err != nil {
			return "", err
		}
		r, err := arena.Run(spec, arena.Options{})
		return fmt.Sprintf("%+v %v %v %v %+v %+v", r.Flows, r.Jain, r.Converged, r.Convergence,
			r.Epochs, r.Group.Snapshot()), err
	}},
	{"busy-at-stop", runBusyAtStop},
}

// A busyWorld stops at busyStop with everything in use, so that what
// it hands on was live when its clock stopped: a CUBIC flow's full
// window, packets on every link and on hold (each server flow delays
// what it receives), and media messages in reassembly behind the
// narrow URLLC, some of them missing packets refused at entry.
type busyWorld struct {
	w           *core.World
	bulk, media *transport.Conn
	accepted    []*transport.Conn
	got         int
}

const busyStop = 2 * time.Second

func newBusyWorld() *busyWorld {
	b := &busyWorld{w: core.NewWorld(3, func(l *sim.Loop) *channel.Group {
		return core.Cellular(l, trace.Constant("embb", 50*time.Millisecond, 60e6))
	})}
	single := func(name string) steering.Policy { return steering.NewSingle(b.w.Group.Get(name)) }
	b.w.Server.Listen(func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: single(channel.NameEMBB), RxDelay: 20 * time.Millisecond}
	}, func(c *transport.Conn) {
		b.accepted = append(b.accepted, c)
		c.OnMessage(func(*transport.Conn, transport.Message) { b.got++ })
	})
	b.bulk = b.w.Client.Dial(transport.Config{CC: cc.NewCubic(), Steer: single(channel.NameEMBB)})
	b.bulk.SendMessage(0, 0, 1<<24, nil)
	b.media = b.w.Client.Dial(transport.Config{Steer: single(channel.NameURLLC), Unreliable: true})
	b.w.Loop.At(busyStop-50*time.Millisecond, func() {
		for i := 0; i < 50; i++ {
			b.media.SendMessage(0, 0, 3*packet.MaxPayload, nil)
		}
	})
	return b
}

// runBusyAtStop is the busy world as a worldKind.
func runBusyAtStop() (string, error) {
	b := newBusyWorld()
	b.w.Run(busyStop)
	out := fmt.Sprintf("%+v %+v %v %d", b.bulk.Stats(), b.media.Stats(), b.bulk.SRTT(), b.got)
	for _, c := range b.accepted {
		out += fmt.Sprintf(" %+v", c.Stats())
	}
	return out, nil
}

// runToStop runs a busy world's loop up to its stop, leaving the world
// to end (World.Run), and checks that it is busy then.
func runToStop(t *testing.T) *busyWorld {
	t.Helper()
	b := newBusyWorld()
	b.w.Loop.RunUntil(busyStop)
	g := b.w.Group
	if g.Packets() == 0 || g.Pool().Live() <= g.Packets() {
		t.Fatalf("the world is idle: %d packets on links, %d out of the pool", g.Packets(), g.Pool().Live())
	}
	return b
}

// A finished world hands on everything it held, so with checking on
// its end-of-run audit (transport/retire-empty) fails unless every
// packet is back in the pool and every transport record and window is
// back in an arena; and the pool's books must read empty.
func TestRetiredWorldIsEmpty(t *testing.T) {
	b := runToStop(t)
	b.w.Run(busyStop)
	if live, onLinks := b.w.Group.Pool().Live(), b.w.Group.Packets(); live != 0 || onLinks != 0 {
		t.Errorf("the retired world has %d packets out of its pool, %d on links", live, onLinks)
	}
}

// A retired world is inert: its loop has handed its arrays to the next
// world, so running it, scheduling on it, or offering a packet to one
// of its links fails sim/retired-loop, and its connections are closed;
// what the run reports is unchanged.
func TestRetiredWorldIsInert(t *testing.T) {
	b := runToStop(t)
	stats := b.bulk.Stats()
	b.w.Run(busyStop)
	if b.bulk.Stats() != stats {
		t.Errorf("retiring changed what the run reports: %+v -> %+v", stats, b.bulk.Stats())
	}
	g := b.w.Group
	for _, c := range []struct {
		name string
		call func()
	}{
		{"RunUntil", func() { b.w.Loop.RunUntil(2 * busyStop) }},
		{"After", func() { b.w.Loop.After(time.Second, func() {}) }},
		{"link Send", func() { g.Get(channel.NameEMBB).Send(channel.A, g.Pool().Get()) }},
	} {
		func() {
			defer func() {
				v, ok := recover().(*invariant.Violation)
				if !ok || v.Layer != "sim" || v.Name != "retired-loop" {
					t.Errorf("%s on a retired world: got %v, want sim/retired-loop", c.name, v)
				}
			}()
			c.call()
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SendMessage on a retired world's connection did not panic")
			}
		}()
		b.bulk.SendMessage(0, 0, 1000, nil)
	}()
}

// coldProcess leaves the process with no spare lists, as if no world had
// run: a world built and never run adopts the waiting one.
func coldProcess() {
	core.NewWorld(0, func(l *sim.Loop) *channel.Group { return channel.NewGroup(channel.URLLC(l)) })
}

func runKind(t *testing.T, i int) string {
	t.Helper()
	s, err := worldKinds[i].run()
	if err != nil {
		t.Fatalf("%s: %v", worldKinds[i].name, err)
	}
	return s
}

// A world runs on the free lists of whichever worlds finished before it
// in the process (transport.Retire), so its results must not depend on
// them: each kind gives the same bytes run first (coldProcess), after a
// world of each other kind, and while other goroutines run and retire
// worlds of every kind — which, under -race, also checks that no world
// touches what another still uses.
func TestPredecessorIndependent(t *testing.T) {
	for i, k := range worldKinds {
		coldProcess()
		first := runKind(t, i)
		for j := range worldKinds {
			if j == i {
				continue
			}
			runKind(t, j)
			if got := runKind(t, i); got != first {
				t.Errorf("%s after %s differs from %s run first", k.name, worldKinds[j].name, k.name)
			}
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := w; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := worldKinds[n%len(worldKinds)].run(); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		for r := 0; r < 2; r++ {
			if got, err := k.run(); err != nil || got != first {
				t.Errorf("%s beside concurrent worlds differs from %s run first (%v)", k.name, k.name, err)
			}
		}
		close(stop)
		wg.Wait()
	}
}

// A session after the first runs on what the sessions before it
// retired: its packets, payload boxes, transport records, receive holds
// and loop and link arrays are adopted, not allocated — those that were
// still in use when its predecessor stopped included. Objects per warm
// session, measured here against handing on the free lists alone; each
// bound fails the latter, and the video and web bounds also fail a
// world whose links do not adopt their predecessor's rings (111, 361):
//   - 2 s video: 98 against 126; bound 105;
//   - three-page web: 317 against 526; bound 340;
//   - 10 s deep-window CUBIC bulk: 124 against 4 880; bound 400;
//   - 5 s four-flow arena with receive delays: 385 against 4 658;
//     bound 700.
func TestWarmWorldAllocs(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, c := range []struct {
		name  string
		bound float64
		run   func() error
	}{
		{"video", 105, func() error {
			_, err := core.RunVideo(core.VideoConfig{Seed: 1, Duration: 2 * time.Second,
				Trace: "lowband-driving", Policy: core.PolicyDChannel})
			return err
		}},
		{"web", 340, func() error {
			_, err := core.RunWeb(core.WebConfig{Seed: 1, Trace: "lowband-driving",
				Policy: core.PolicyDChannel, Pages: 3, Loads: 1})
			return err
		}},
		{"bulk", 400, func() error {
			_, err := core.RunBulk(core.BulkConfig{Seed: 1, Duration: 10 * time.Second, CC: "cubic",
				Policy: core.PolicyDChannel})
			return err
		}},
		{"arena", 700, func() error {
			spec, err := arena.ParseSpec("flows=4 mix=cubic,bbr rttspread=30ms seed=1 dur=5s")
			if err != nil {
				return err
			}
			_, err = arena.Run(spec, arena.Options{})
			return err
		}},
	} {
		if err := c.run(); err != nil { // the warm-up: a predecessor
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f objects per warm session", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("%s: %.0f objects per warm session, want <= %.0f", c.name, allocs, c.bound)
		}
	}
}
