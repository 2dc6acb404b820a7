package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hvc/internal/spec"
)

// FuzzSweepSpecParse exercises the grid-spec parser with arbitrary
// input: it must never panic, and any spec it accepts must round-trip
// — the canonical String reparses to the same spec and is a fixed
// point. The same holds for what ParseQuickSpec accepts.
func FuzzSweepSpecParse(f *testing.F) {
	f.Add("exp=bulk cc=cubic,bbr,vegas,vivace policy=dchannel,embb-only seeds=1..5 dur=15s")
	f.Add("exp=video policy=priority trace=mmwave-driving seeds=3 dur=20s")
	f.Add("exp=web pages=6 loads=2 trace=lowband-stationary,lowband-driving")
	f.Add("exp=abr trace=lowband-walking seeds=-4..-1")
	f.Add("exp=bulk")
	f.Add("exp=bulk seeds=1..9223372036854775807")
	f.Add("exp=web dur=5s")
	f.Add("cc=cubic")
	f.Add("exp=bulk cc=cubic cc=bbr")
	f.Add("  exp=bulk\t dur=1h  ")
	f.Add("exp=bulk dur=1ns seeds=0")
	f.Add("exp=outage policy=redundant,embb-only seeds=1..3 dur=8s")
	f.Add("exp=outage fault=outage:ch=embb,at=1s,dur=500ms;burst:ch=urllc,at=2s,dur=1s,pgb=0.3")
	f.Add("exp=outage fault=none")
	f.Add("exp=video fault=outage:ch=embb,at=1s,dur=1s")
	f.Add("exp=arena flows=4 mix=cubic:2,bbr join=250ms rttspread=20ms dur=4s seeds=1..2")
	f.Add("exp=arena")
	f.Add("exp=arena mix=cubic,cubic")
	f.Add("exp=arena flows=2 join=10s dur=5s")
	f.Add("exp=bulk flows=4")
	f.Add("exp=bulk dur=0s")
	f.Add("exp=bulk join=0s")
	f.Fuzz(func(t *testing.T, in string) {
		// A quick spec is printed and cached as a full one: its String
		// reparses without -quick to the same spec.
		for _, parse := range []func(string) (Spec, error){ParseSpec, ParseQuickSpec} {
			sp, err := parse(in)
			if err != nil {
				continue // rejected: fine, as long as no panic
			}
			if err := spec.RoundTrip(sp, ParseSpec); err != nil {
				t.Fatalf("%q: %v", in, err)
			}
		}
	})
}

// FuzzCacheLoad feeds the cache reader arbitrary entry files under a
// job's address. It must never panic; a miss must delete the file, and
// a hit must leave it in place and return metrics that store writes
// and load reads back unchanged.
func FuzzCacheLoad(f *testing.F) {
	sp, err := ParseSpec("exp=video policy=dchannel trace=lowband-driving seeds=1..1 dur=5s")
	if err != nil {
		f.Fatal(err)
	}
	j := job{spec: sp, cell: sp.cells()[0], seed: 1}
	want := []MetricValue{{Name: "latency_p50_ms", Value: 12.5}, {Name: "ssim_mean", Value: 0.93}}
	seed := cache{dir: f.TempDir(), build: "b"}
	if err := seed.store(j, want); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seed.path(j.key(seed.build)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte("12.5"), []byte("13.5"), 1))
	f.Add(bytes.Replace(good, []byte("0.93"), []byte("0.93e0"), 1))
	f.Add(good[:len(good)/2])
	f.Add([]byte("{}"))
	f.Add([]byte(`{"metrics":[],"sum":""}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := cache{dir: t.TempDir(), build: "b"}
		path := c.path(j.key(c.build))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := c.load(j)
		_, statErr := os.Stat(path)
		if !ok {
			if statErr == nil {
				t.Fatal("a missed entry was left in place")
			}
			return
		}
		if statErr != nil {
			t.Fatalf("a hit deleted its entry: %v", statErr)
		}
		// Store what was read and read it back: a hit is a fixed point.
		again := cache{dir: t.TempDir(), build: "b"}
		if err := again.store(j, got); err != nil {
			t.Fatal(err)
		}
		if back, ok := again.load(j); !ok || !slices.Equal(back, got) {
			t.Fatalf("hit %v does not round-trip: %v, %v", got, back, ok)
		}
	})
}
