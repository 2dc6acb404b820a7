package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"hvc/internal/arena"
	"hvc/internal/fleet"
	"hvc/internal/invariant"
)

// freshWorkloads are the runs the fresh-record differential compares:
// every experiment at -quick scale, a lossy arena under compound faults
// with heterogeneous receive delays, and a fleet that mixes every app.
// Each renders everything it computes as bytes.
var freshWorkloads = []struct {
	name string
	run  func(t *testing.T) []byte
}{
	{"quick matrix", func(t *testing.T) []byte {
		var b bytes.Buffer
		for _, name := range Order() {
			out, rep := capture(t, name, 1, QuickScale())
			b.Write(out)
			b.Write(rep)
		}
		return b.Bytes()
	}},
	{"lossy faulted arena", func(t *testing.T) []byte {
		spec, err := arena.ParseSpec("flows=6 mix=cubic,bbr,copa,reno,vegas,vivace join=500ms rttspread=40ms seed=7 dur=8s trace=lowband-driving")
		if err != nil {
			t.Fatal(err)
		}
		r, err := arena.Run(spec, arena.Options{Fault: "burst:ch=embb,at=2s,dur=1s;outage:ch=urllc,at=3s,dur=500ms;outage:ch=embb,at=5s,dur=300ms"})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Appendf(nil, "%+v %v %v %v %+v %+v", r.Flows, r.Jain, r.Converged, r.Convergence, r.Epochs, r.Group.Snapshot())
	}},
	{"mixed fleet", func(t *testing.T) []byte {
		spec, err := fleet.ParseSpec("ues=24 seed=5 mix=bulk:1,video:1,web:1,arena:1 policy=dchannel,embb-only,redundant trace=lowband-driving,lowband-stationary dur=2s pages=2 stagger=2s")
		if err != nil {
			t.Fatal(err)
		}
		r, err := fleet.Run(spec, fleet.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}},
}

// Where a record came from — a free list, a finished world's spare, or
// the allocator — must never show in a result. With fresh records on
// (invariant.Fresh) every free list is bypassed: the packet pool, the
// transport arenas and window arrays, the spare a finished world hands
// on, and the loop and link arrays handed with it. Each workload must
// print the same bytes both ways; and, so that the switch is known to
// bite, the fresh run must allocate more.
func TestFreshRecordsChangeNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick matrix twice; skipped with -short")
	}
	if !invariant.Compiled {
		t.Skip("the fresh-record switch is compiled out")
	}
	var reused [][]byte
	var reuseAllocs, freshAllocs uint64
	measure := func(fresh bool) {
		invariant.SetFresh(fresh)
		defer invariant.SetFresh(false)
		var before, after runtime.MemStats
		for i, w := range freshWorkloads {
			runtime.ReadMemStats(&before)
			got := w.run(t)
			runtime.ReadMemStats(&after)
			n := after.Mallocs - before.Mallocs
			if !fresh {
				reused = append(reused, got)
				reuseAllocs += n
				continue
			}
			freshAllocs += n
			if !bytes.Equal(got, reused[i]) {
				t.Errorf("%s: output differs with fresh records\n--- recycled ---\n%s\n--- fresh ---\n%s", w.name, reused[i], got)
			}
		}
	}
	measure(false)
	measure(true)
	t.Logf("%d objects allocated recycling, %d fresh", reuseAllocs, freshAllocs)
	if freshAllocs < reuseAllocs+reuseAllocs/4 {
		t.Errorf("fresh records allocated %d objects against %d recycled: the switch does not bite", freshAllocs, reuseAllocs)
	}
}
