package web

import (
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/transport"
)

// A corpus is a few slab chunks, one Page array and a name per page:
// its objects and their Children arrays cost no allocation each.
func TestCorpusAllocsPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const pages = 30
	got := testing.AllocsPerRun(5, func() { GenerateCorpus(1, pages) }) / pages
	t.Logf("%.2f objects per page", got)
	if got > 4 {
		t.Errorf("GenerateCorpus allocated %.2f objects per page, want <= 4", got)
	}
}

// The background flows' requests point at two package-level values, so
// once the world has grown to the flows' working set a transfer
// allocates nothing.
func TestBackgroundEchoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	e := newEnv(4)
	e.serve()
	bg := StartBackground(e.client, e.clientCfg)
	until := 10 * time.Second
	e.loop.RunUntil(until) // warm: windows, rings, pools
	before := bg.Uploads + bg.Downloads
	got := testing.AllocsPerRun(1, func() {
		until += 2 * time.Second
		e.loop.RunUntil(until)
	})
	// AllocsPerRun runs the function twice: one warm-up, one measured.
	transfers := (bg.Uploads + bg.Downloads - before) / 2
	if transfers < 100 {
		t.Fatalf("only %d background transfers in 2 s", transfers)
	}
	t.Logf("%.0f objects over %d transfers", got, transfers)
	if got != 0 {
		t.Errorf("%d warm background transfers allocated %.0f objects, want 0", transfers, got)
	}
}

// fanPage is a page whose root has n scripts, each with one image: 2n+1
// objects and n+1 parse timers, numbered densely as a corpus numbers
// them.
func fanPage(n int) *Page {
	id := 1
	root := &Object{ID: id, Kind: HTML, Size: 20_000, ParseDelay: 80 * time.Millisecond}
	for i := 0; i < n; i++ {
		script := &Object{ID: id + 1, Kind: Script, Size: 6_000, ParseDelay: 45 * time.Millisecond}
		script.Children = []*Object{{ID: id + 2, Kind: Image, Size: 9_000}}
		root.Children = append(root.Children, script)
		id += 2
	}
	return &Page{Name: "fan", Root: root}
}

// A loader loads pages one at a time over one endpoint pair. Its
// server answers as Serve does, but closes each connection once its page
// has loaded: a server connection outlives its closed peer and keeps
// retransmitting to it (TestServerQuiescesAfterPeerClose), which would
// make every load cost more than the one before.
type loader struct {
	e     *env
	srv   *transport.Conn
	until time.Duration
}

func newLoader() *loader {
	l := &loader{e: newEnv(1)}
	l.e.server.Listen(func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: l.e.embbOnly(channel.B)}
	}, func(c *transport.Conn) {
		l.srv = c
		c.OnMessage(func(conn *transport.Conn, m transport.Message) {
			obj := m.Data.(fetchReq).obj
			conn.SendMessage(m.Stream, m.Priority, obj.Size, obj)
		})
	})
	return l
}

// load loads p and reports whether onLoad fired within a minute.
func (l *loader) load(p *Page) bool {
	loaded := false
	LoadWith(l.e.client, l.e.clientCfg(), p, LoadOptions{}, func(LoadResult) { loaded = true })
	l.until += time.Minute
	l.e.loop.RunUntil(l.until)
	l.srv.Close()
	return loaded
}

// A page load's cost is its connection and one record, not its object
// count: no closure, map entry or boxed request per object or parse
// timer. Both page sizes load on a world already warmed by the larger,
// so the endpoints' pools have reached their peak; what still grows with
// the page is each new connection's queues and the pending-parse list,
// by doubling.
func TestPageLoadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const n = 80
	l := newLoader()
	small, large := fanPage(n), fanPage(2*n)
	load := func(p *Page) func() {
		return func() {
			if !l.load(p) {
				t.Fatalf("%d-object page did not load", p.Objects())
			}
		}
	}
	load(large)()
	a, b := testing.AllocsPerRun(3, load(small)), testing.AllocsPerRun(3, load(large))
	t.Logf("%d objects: %.0f allocations, %d objects: %.0f", small.Objects(), a, large.Objects(), b)
	if extra := b - a; extra > n/4 {
		t.Errorf("%d more objects (%d more parse timers) allocated %.0f more objects (%.0f -> %.0f), want O(1)",
			large.Objects()-small.Objects(), n, extra, a, b)
	}
}

// BenchmarkPageLoad loads one corpus page per iteration over a warm
// endpoint pair: what a page load costs once the world has grown.
func BenchmarkPageLoad(b *testing.B) {
	l := newLoader()
	page := GenerateCorpus(3, 1)[0]
	l.load(page)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !l.load(page) {
			b.Fatal("page did not load")
		}
	}
}
