package web

import (
	"slices"
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

func TestCorpusDeterministicAndPlausible(t *testing.T) {
	a := GenerateCorpus(1, 30)
	b := GenerateCorpus(1, 30)
	if len(a) != 30 {
		t.Fatalf("corpus size %d", len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Objects() != b[i].Objects() || a[i].TotalBytes() != b[i].TotalBytes() {
			t.Fatalf("corpus not deterministic at page %d", i)
		}
	}
	for _, p := range a {
		if p.Objects() < 5 || p.Objects() > 200 {
			t.Errorf("%s: %d objects out of plausible range", p.Name, p.Objects())
		}
		if p.TotalBytes() < 100_000 || p.TotalBytes() > 8_000_000 {
			t.Errorf("%s: %d bytes out of plausible range", p.Name, p.TotalBytes())
		}
		if p.Root.Kind != HTML {
			t.Errorf("%s: root kind %d", p.Name, p.Root.Kind)
		}
	}
}

func TestLandingPagesHeavier(t *testing.T) {
	corpus := GenerateCorpus(2, 40)
	var landObjs, intObjs, landN, intN int
	for _, p := range corpus {
		if p.Landing {
			landObjs += p.Objects()
			landN++
		} else {
			intObjs += p.Objects()
			intN++
		}
	}
	if landObjs/landN <= intObjs/intN {
		t.Fatalf("landing pages should average more objects: %d vs %d",
			landObjs/landN, intObjs/intN)
	}
}

// env wires a client/server world over eMBB+URLLC.
type env struct {
	loop           *sim.Loop
	group          *channel.Group
	client, server *transport.Endpoint
}

func newEnv(seed int64) *env {
	loop := sim.NewLoop(seed)
	g := channel.NewGroup(channel.EMBBFixed(loop), channel.URLLC(loop))
	e := &env{
		loop:   loop,
		group:  g,
		client: transport.NewEndpoint(loop, g, channel.A),
		server: transport.NewEndpoint(loop, g, channel.B),
	}
	return e
}

func (e *env) embbOnly(side channel.Side) steering.Policy {
	return steering.NewSingle(e.group.Get(channel.NameEMBB))
}

func (e *env) clientCfg() transport.Config {
	return transport.Config{CC: cc.NewCubic(), Steer: e.embbOnly(channel.A)}
}

func (e *env) serve() {
	Serve(e.server, func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: e.embbOnly(channel.B)}
	})
}

func TestLoadFetchesWholePage(t *testing.T) {
	e := newEnv(1)
	e.serve()
	page := GenerateCorpus(3, 2)[0]

	var res *LoadResult
	Load(e.client, e.clientCfg(), page, func(r LoadResult) { res = &r })
	e.loop.RunUntil(60 * time.Second)

	if res == nil {
		t.Fatal("onLoad never fired")
	}
	if res.Objects != page.Objects() {
		t.Fatalf("fetched %d objects, want %d", res.Objects, page.Objects())
	}
	if res.Bytes != page.TotalBytes() {
		t.Fatalf("fetched %d bytes, want %d", res.Bytes, page.TotalBytes())
	}
	if res.PLT <= 0 {
		t.Fatal("PLT not measured")
	}
}

func TestPLTInRealisticBand(t *testing.T) {
	// Over fixed 50 ms / 60 Mbps eMBB, a full page should land within
	// the broad band the paper's Table 1 sits in (and take at least a
	// few RTTs).
	e := newEnv(2)
	e.serve()
	corpus := GenerateCorpus(4, 10)

	var plts []time.Duration
	var load func(i int)
	load = func(i int) {
		if i >= len(corpus) {
			return
		}
		Load(e.client, e.clientCfg(), corpus[i], func(r LoadResult) {
			plts = append(plts, r.PLT)
			load(i + 1)
		})
	}
	load(0)
	e.loop.RunUntil(5 * time.Minute)

	if len(plts) != len(corpus) {
		t.Fatalf("only %d/%d pages completed", len(plts), len(corpus))
	}
	var sum time.Duration
	for _, p := range plts {
		if p < 150*time.Millisecond {
			t.Errorf("PLT %v implausibly fast for 50ms RTT", p)
		}
		sum += p
	}
	mean := sum / time.Duration(len(plts))
	if mean < 400*time.Millisecond || mean > 4*time.Second {
		t.Fatalf("mean PLT %v outside the plausible band", mean)
	}
}

func TestDChannelBeatsEMBBOnlyPLT(t *testing.T) {
	page := GenerateCorpus(5, 2)[0]
	run := func(dch bool) time.Duration {
		e := newEnv(3)
		steerA := steering.Policy(steering.NewSingle(e.group.Get(channel.NameEMBB)))
		steerB := steerA
		if dch {
			steerA = steering.NewDChannel(e.group, channel.A, steering.DChannelConfig{})
			steerB = steering.NewDChannel(e.group, channel.B, steering.DChannelConfig{})
		}
		Serve(e.server, func() transport.Config {
			return transport.Config{CC: cc.NewCubic(), Steer: steerB}
		})
		var plt time.Duration
		Load(e.client, transport.Config{CC: cc.NewCubic(), Steer: steerA}, page,
			func(r LoadResult) { plt = r.PLT })
		e.loop.RunUntil(2 * time.Minute)
		if plt == 0 {
			t.Fatal("load incomplete")
		}
		return plt
	}
	embb, dch := run(false), run(true)
	if dch >= embb {
		t.Fatalf("DChannel PLT %v should beat eMBB-only %v", dch, embb)
	}
}

func TestBackgroundFlowsKeepRunning(t *testing.T) {
	e := newEnv(4)
	e.serve()
	bg := StartBackground(e.client, e.clientCfg)
	e.loop.RunUntil(10 * time.Second)
	if bg.Uploads < 10 || bg.Downloads < 10 {
		t.Fatalf("background made little progress: up=%d down=%d", bg.Uploads, bg.Downloads)
	}
	up, down := bg.Uploads, bg.Downloads
	bg.Stop()
	e.loop.RunUntil(20 * time.Second)
	if bg.Uploads != up || bg.Downloads != down {
		t.Fatal("background flows kept running after Stop")
	}
}

func TestBackgroundBulkStampsPackets(t *testing.T) {
	e := newEnv(5)
	e.serve()
	bulkCfg := func() transport.Config {
		return transport.Config{
			CC:           cc.NewCubic(),
			Steer:        steering.NewPriority(e.group, channel.A, steering.PriorityConfig{AdmitPrio: -1, Heuristic: true}),
			FlowPriority: packet.PriorityBulk,
		}
	}
	StartBackground(e.client, bulkCfg)
	e.loop.RunUntil(5 * time.Second)
	// With the priority policy and bulk flow priority, nothing from
	// the client may enter URLLC.
	if sent := e.group.Get(channel.NameURLLC).Stats(channel.A).Sent; sent != 0 {
		t.Fatalf("%d bulk packets used URLLC despite flow priority", sent)
	}
}

func TestBackgroundWithoutHintUsesURLLC(t *testing.T) {
	e := newEnv(6)
	e.serve()
	dchCfg := func() transport.Config {
		return transport.Config{
			CC:    cc.NewCubic(),
			Steer: steering.NewDChannel(e.group, channel.A, steering.DChannelConfig{}),
		}
	}
	StartBackground(e.client, dchCfg)
	e.loop.RunUntil(5 * time.Second)
	if sent := e.group.Get(channel.NameURLLC).Stats(channel.A).Sent; sent == 0 {
		t.Fatal("unhinted background flows should pollute URLLC (the Table 1 effect)")
	}
}

func TestRenderReadyPrecedesOnLoad(t *testing.T) {
	e := newEnv(7)
	e.serve()
	page := GenerateCorpus(8, 2)[0]
	var res *LoadResult
	Load(e.client, e.clientCfg(), page, func(r LoadResult) { res = &r })
	e.loop.RunUntil(2 * time.Minute)
	if res == nil {
		t.Fatal("load incomplete")
	}
	if res.RenderReady <= 0 || res.RenderReady > res.PLT {
		t.Fatalf("RenderReady %v vs PLT %v", res.RenderReady, res.PLT)
	}
}

func TestKindPrioritiesImproveRenderReady(t *testing.T) {
	// Over a narrow channel, declaring per-kind priorities lets the
	// transport scheduler send render-blocking bytes ahead of images,
	// pulling RenderReady forward without touching the onLoad total.
	page := GenerateCorpus(9, 4)[0]
	run := func(prio bool) (render, plt time.Duration) {
		loop := sim.NewLoop(10)
		slow := channel.New(loop, channel.Config{
			Props:     channel.Properties{Name: channel.NameEMBB, BaseRTT: 50 * time.Millisecond, Bandwidth: 8e6},
			DownTrace: trace.Constant("slow", 50*time.Millisecond, 8e6),
		})
		g := channel.NewGroup(slow)
		client := transport.NewEndpoint(loop, g, channel.A)
		server := transport.NewEndpoint(loop, g, channel.B)
		Serve(server, func() transport.Config {
			return transport.Config{CC: cc.NewCubic(), Steer: steering.NewSingle(slow)}
		})
		var res *LoadResult
		LoadWith(client,
			transport.Config{CC: cc.NewCubic(), Steer: steering.NewSingle(slow)},
			page, LoadOptions{KindPriorities: prio},
			func(r LoadResult) { res = &r })
		loop.RunUntil(5 * time.Minute)
		if res == nil {
			t.Fatal("load incomplete")
		}
		return res.RenderReady, res.PLT
	}
	plainRender, plainPLT := run(false)
	prioRender, prioPLT := run(true)
	if prioRender >= plainRender {
		t.Fatalf("kind priorities render-ready %v should beat plain %v", prioRender, plainRender)
	}
	// onLoad moves little either way (same bytes, same channel).
	ratio := float64(prioPLT) / float64(plainPLT)
	if ratio > 1.25 || ratio < 0.75 {
		t.Fatalf("PLT changed too much: %v vs %v", prioPLT, plainPLT)
	}
}

func TestKindPriorityTable(t *testing.T) {
	if KindPriority(HTML) != 0 {
		t.Fatal("HTML must be most important")
	}
	if KindPriority(Image) <= KindPriority(Script) {
		t.Fatal("images must rank below scripts")
	}
}

// Load closes the client connection at onLoad, and nothing tells the
// server: its Conn stays in the endpoint's table, and whenever the
// client's last delayed ack died with the client's timers, the server
// retransmits its unacknowledged tail on every (backed-off) RTO for the
// life of the world. A closed peer should be signalled and the server
// should release the connection; then the world falls silent.
func TestServerQuiescesAfterPeerClose(t *testing.T) {
	t.Skip("known gap: ROADMAP item 2, connections end: peer close")
	for seed := int64(1); seed <= 5; seed++ {
		e := newEnv(seed)
		e.serve()
		loaded := false
		Load(e.client, e.clientCfg(), GenerateCorpus(seed, 1)[0], func(LoadResult) { loaded = true })
		e.loop.RunUntil(5 * time.Second)
		if !loaded {
			t.Fatalf("seed %d: page did not load in 5 s", seed)
		}
		quiet := e.loop.Events()
		e.loop.RunUntil(5 * time.Minute)
		if n := e.loop.Events() - quiet; n != 0 || e.loop.Pending() != 0 {
			t.Errorf("seed %d: %d events in the five minutes after onLoad, %d still pending: the server is retransmitting to a closed peer",
				seed, n, e.loop.Pending())
		}
	}
}

// Parse timers share one callback, which names the object whose timer
// fired from the pending list: among equal deadlines the first
// scheduled, as the loop fires them. A and B finish parsing at the same
// nanosecond; A's parse was scheduled first, with the longer delay, so
// A's children must be requested first.
func TestParseTimersTieInScheduleOrder(t *testing.T) {
	e := newEnv(1)
	var requested []int
	e.server.Listen(func() transport.Config {
		return transport.Config{CC: cc.NewCubic(), Steer: e.embbOnly(channel.B)}
	}, func(c *transport.Conn) {
		c.OnMessage(func(_ *transport.Conn, m transport.Message) {
			requested = append(requested, m.Data.(fetchReq).obj.ID) // never answered
		})
	})
	leaf := func(id int) *Object { return &Object{ID: id, Kind: Image, Size: 1_000} }
	a := &Object{ID: 2, Kind: Script, Size: 1_000, ParseDelay: 20 * time.Millisecond,
		Children: []*Object{leaf(4), leaf(5)}}
	b := &Object{ID: 3, Kind: Script, Size: 1_000, ParseDelay: 10 * time.Millisecond,
		Children: []*Object{leaf(6), leaf(7)}}
	root := &Object{ID: 1, Kind: HTML, Size: 1_000, Children: []*Object{a, b}}
	p := startLoad(e.client, e.clientCfg(), &Page{Name: "tie", Root: root}, LoadOptions{},
		func(LoadResult) { t.Error("onLoad fired with requests unanswered") })

	// Deliver the two scripts as if they had arrived, 10 ms apart.
	e.loop.At(time.Millisecond, func() { p.onMessage(nil, transport.Message{Data: a}) })
	e.loop.At(11*time.Millisecond, func() { p.onMessage(nil, transport.Message{Data: b}) })
	e.loop.RunUntil(5 * time.Second)

	want := []int{1, 4, 5, 6, 7}
	if !slices.Equal(requested, want) {
		t.Fatalf("server saw requests for objects %v, want %v", requested, want)
	}
}
