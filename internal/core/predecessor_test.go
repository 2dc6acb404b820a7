package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hvc/internal/arena"
	"hvc/internal/channel"
	"hvc/internal/core"
	"hvc/internal/sim"
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
