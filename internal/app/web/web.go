// Package web implements the paper's web-browsing workload (§3.3,
// Table 1): page loads measured by the onLoad event over an HTTP/2-like
// multiplexed transport, plus the two background flows — one
// continuously uploading 5 kB JSON objects and one downloading 10 kB
// objects — that compete with the page for the constrained low-latency
// channel.
//
// The paper replayed 30 recorded Hispar pages through Mahimahi with a
// Chromium client; neither the recordings nor a browser are available
// here, so pages are synthetic dependency DAGs drawn from size and
// fan-out distributions typical of landing and internal pages (see
// DESIGN.md §1). What Table 1 measures — the interaction of many small
// dependent fetches with steering and background queue build-up — is
// preserved.
package web

import (
	"fmt"
	"math/rand"
	"time"

	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/telemetry"
	"hvc/internal/transport"
)

// Kind classifies a page object; kinds differ in size range and in
// whether they trigger further fetches.
type Kind uint8

const (
	// HTML is the root document.
	HTML Kind = iota
	// Script is render-blocking JavaScript that may fetch children.
	Script
	// Stylesheet may fetch fonts and images.
	Stylesheet
	// Image is a leaf resource.
	Image
	// JSON is a small API response (also what background flows move).
	JSON
)

// An Object is one fetchable resource. Children become fetchable once
// the object has fully arrived and its parse delay has elapsed.
type Object struct {
	ID         int
	Kind       Kind
	Size       int
	ParseDelay time.Duration
	Children   []*Object
}

// A Page is one synthetic web page: a dependency DAG rooted at the
// HTML document.
type Page struct {
	Name    string
	Landing bool
	Root    *Object
}

// Objects counts all resources on the page.
func (p *Page) Objects() int { return countObjects(p.Root) }

func countObjects(o *Object) int {
	n := 1
	for _, c := range o.Children {
		n += countObjects(c)
	}
	return n
}

// TotalBytes sums all resource sizes.
func (p *Page) TotalBytes() int { return sumBytes(p.Root) }

func sumBytes(o *Object) int {
	n := o.Size
	for _, c := range o.Children {
		n += sumBytes(c)
	}
	return n
}

// RequestBytes is the size of one HTTP request message.
const RequestBytes = 400

// KindPriority maps an object kind to the message priority a
// priority-aware browser declares: render-blocking resources (HTML,
// stylesheets, scripts) outrank images and background JSON. This is
// the web-side use of the paper's message-importance interface.
func KindPriority(k Kind) packet.Priority {
	switch k {
	case HTML:
		return 0
	case Stylesheet, Script:
		return 1
	case JSON:
		return 2
	default: // images
		return 3
	}
}

// GenerateCorpus returns n synthetic pages, alternating landing and
// internal pages, drawn deterministically from seed. The same seed
// yields the identical corpus, so policies are compared on identical
// workloads.
func GenerateCorpus(seed int64, n int) []*Page {
	rng := rand.New(rand.NewSource(seed))
	var s slab
	pages := make([]*Page, n)
	store := make([]Page, n)
	for i := range pages {
		pages[i] = &store[i]
		generatePage(rng, &s, pages[i], i, i%2 == 0)
	}
	return pages
}

// slabChunk is how many objects, or child pointers, one slab chunk
// holds: a few chunks serve a whole corpus.
const slabChunk = 128

// A slab hands out a corpus's objects and Children arrays from chunks
// of slabChunk, so a page costs no allocation per object. A chunk is
// never reallocated, so the pointers it hands out stay valid; it lives
// as long as any object of the corpus.
type slab struct {
	objs []Object
	ptrs []*Object
}

func (s *slab) object() *Object {
	if len(s.objs) == 0 {
		s.objs = make([]Object, slabChunk)
	}
	o := &s.objs[0]
	s.objs = s.objs[1:]
	return o
}

// children returns an array for n children, nil for none. Its capacity
// is n, so an append cannot run into the next object's children.
func (s *slab) children(n int) []*Object {
	if n == 0 {
		return nil
	}
	if len(s.ptrs) < n {
		s.ptrs = make([]*Object, max(slabChunk, n))
	}
	c := s.ptrs[:n:n]
	s.ptrs = s.ptrs[n:]
	return c
}

// size draws a size in [lo, hi] with a mild heavy tail.
func size(rng *rand.Rand, lo, hi int) int {
	f := rng.Float64()
	f = f * f // bias toward the low end, occasional large objects
	return lo + int(f*float64(hi-lo))
}

// generatePage fills p with page i. Every child count is drawn before
// the children themselves, so each Children array is made once, at its
// final length.
func generatePage(rng *rand.Rand, s *slab, p *Page, i int, landing bool) {
	next := 0
	newObj := func(k Kind, sz int, parse time.Duration) *Object {
		next++
		o := s.object()
		*o = Object{ID: next, Kind: k, Size: sz, ParseDelay: parse}
		return o
	}

	// Parse and script-execution delays reflect a mobile browser, the
	// client the paper measured (Chromium on a phone-class device).
	var fanout, rootLo, rootHi int
	if landing {
		fanout, rootLo, rootHi = 14+rng.Intn(14), 50_000, 140_000
	} else {
		fanout, rootLo, rootHi = 8+rng.Intn(10), 25_000, 80_000
	}
	root := newObj(HTML, size(rng, rootLo, rootHi), 80*time.Millisecond)
	root.Children = s.children(fanout)

	for j := range root.Children {
		var child *Object
		switch rng.Intn(10) {
		case 0, 1, 2: // scripts
			child = newObj(Script, size(rng, 20_000, 180_000), 45*time.Millisecond)
		case 3, 4: // stylesheets
			child = newObj(Stylesheet, size(rng, 8_000, 80_000), 15*time.Millisecond)
		case 5: // API call
			child = newObj(JSON, size(rng, 1_000, 20_000), 0)
		default: // images
			child = newObj(Image, size(rng, 8_000, 350_000), 0)
		}
		// Scripts and stylesheets pull second-level resources; some
		// scripts (tag managers, bundles) pull a third level.
		if child.Kind == Script || child.Kind == Stylesheet {
			child.Children = s.children(rng.Intn(5))
			for k := range child.Children {
				switch {
				case rng.Intn(4) == 0:
					child.Children[k] = newObj(JSON, size(rng, 1_000, 15_000), 0)
				case child.Kind == Script && rng.Intn(3) == 0:
					sub := newObj(Script, size(rng, 15_000, 90_000), 25*time.Millisecond)
					sub.Children = s.children(rng.Intn(3))
					for m := range sub.Children {
						sub.Children[m] = newObj(Image, size(rng, 5_000, 120_000), 0)
					}
					child.Children[k] = sub
				default:
					child.Children[k] = newObj(Image, size(rng, 5_000, 200_000), 0)
				}
			}
		}
		root.Children[j] = child
	}
	kind := "internal"
	if landing {
		kind = "landing"
	}
	*p = Page{Name: fmt.Sprintf("page-%02d-%s", i, kind), Landing: landing, Root: root}
}

// wire types ---------------------------------------------------------

// fetchReq asks the server for a page object.
type fetchReq struct{ obj *Object }

// echoReq asks the server for respSize opaque bytes (background
// download) or just acknowledges an upload with a small reply.
type echoReq struct{ respSize int }

// The background flows' two requests. Messages carry pointers to these
// read-only values, so a transfer boxes nothing.
var (
	uploadEcho   = echoReq{respSize: replyBytes}
	downloadEcho = echoReq{respSize: DownloadBytes}
)

// Serve installs the web/background server on ep: it answers fetchReq
// messages with the object's bytes and echoReq messages with the
// requested size. cfg builds the per-connection server config
// (steering for the response direction, congestion control).
func Serve(ep *transport.Endpoint, cfg func() transport.Config) {
	ep.Listen(cfg, func(c *transport.Conn) {
		c.OnMessage(func(conn *transport.Conn, m transport.Message) {
			switch req := m.Data.(type) {
			case fetchReq:
				conn.SendMessage(m.Stream, m.Priority, req.obj.Size, req.obj)
			case *echoReq:
				conn.SendMessage(m.Stream, m.Priority, req.respSize, nil)
			default:
				panic(fmt.Sprintf("web: unexpected request payload %T", m.Data))
			}
		})
	})
}

// LoadResult reports one completed page load.
type LoadResult struct {
	Page *Page
	PLT  time.Duration // onLoad: last byte of the last object
	// RenderReady is when the root document and every render-blocking
	// resource (stylesheets and scripts reachable from it) had fully
	// arrived — a first-paint-style milestone.
	RenderReady time.Duration
	Objects     int
	Bytes       int
}

// LoadOptions tunes one page load.
type LoadOptions struct {
	// KindPriorities makes the browser declare per-object message
	// priorities via KindPriority, so priority-aware steering can
	// favor render-blocking resources. Off, every request/response is
	// priority 0, the paper's Table 1 configuration.
	KindPriorities bool
	// Tracer receives per-object completion and page-complete events;
	// nil disables app-layer tracing for the load.
	Tracer *telemetry.Tracer
}

// Load fetches page over a fresh connection from ep and calls done at
// the onLoad event. The connection is closed afterwards. Caches are
// per-load by construction (every load refetches everything), matching
// the paper's cleared-cache methodology.
func Load(ep *transport.Endpoint, cfg transport.Config, page *Page, done func(LoadResult)) {
	LoadWith(ep, cfg, page, LoadOptions{}, done)
}

// LoadWith is Load with explicit options.
func LoadWith(ep *transport.Endpoint, cfg transport.Config, page *Page, opts LoadOptions, done func(LoadResult)) {
	startLoad(ep, cfg, page, opts, done)
}

// A pageLoad is one page load in progress: everything LoadWith's
// callbacks share, so the load allocates per page, not per object.
type pageLoad struct {
	loop  *sim.Loop
	conn  *transport.Conn
	page  *Page
	opts  LoadOptions
	done  func(LoadResult)
	start time.Duration
	res   LoadResult

	// blocking marks the render-blocking objects by ID (IDs run 1..n
	// on a page): the root plus its stylesheet/script descendants,
	// transitively through render-blocking parents. blockingLeft counts
	// those not yet arrived.
	blocking     []bool
	blockingLeft int
	// outstanding counts requests in flight plus parse delays running;
	// onLoad fires when it reaches zero.
	outstanding int

	// parsing lists the objects whose parse timers are pending, in the
	// order they were scheduled. The timers share parseFn and are never
	// cancelled. The loop fires equal deadlines in schedule order, so the
	// timer firing now is the first entry due now.
	parsing []parseDue
	parseFn func()
}

// parseDue is one pending parse timer: its deadline and the object
// whose children it fetches.
type parseDue struct {
	at  time.Duration
	obj *Object
}

// startLoad dials the connection and requests the root document.
func startLoad(ep *transport.Endpoint, cfg transport.Config, page *Page, opts LoadOptions, done func(LoadResult)) *pageLoad {
	p := &pageLoad{
		loop:     ep.Loop(),
		conn:     ep.Dial(cfg),
		page:     page,
		opts:     opts,
		done:     done,
		res:      LoadResult{Page: page},
		blocking: make([]bool, page.Objects()+1),
	}
	p.start = p.loop.Now()
	p.markBlocking(page.Root)
	p.parseFn = p.parsed
	p.conn.OnMessage(p.onMessage)
	p.fetch(page.Root)
	return p
}

func (p *pageLoad) markBlocking(o *Object) {
	p.blocking[o.ID] = true
	p.blockingLeft++
	for _, c := range o.Children {
		if c.Kind == Stylesheet || c.Kind == Script {
			p.markBlocking(c)
		}
	}
}

func (p *pageLoad) fetch(o *Object) {
	p.outstanding++
	prio := packet.Priority(0)
	if p.opts.KindPriorities {
		prio = KindPriority(o.Kind)
	}
	p.conn.SendMessage(p.conn.NewStream(), prio, RequestBytes, fetchReq{obj: o})
}

func (p *pageLoad) onMessage(_ *transport.Conn, m transport.Message) {
	obj, ok := m.Data.(*Object)
	if !ok {
		panic(fmt.Sprintf("web: unexpected response payload %T", m.Data))
	}
	p.res.Objects++
	p.res.Bytes += obj.Size
	if tr := p.opts.Tracer; tr.Enabled() {
		tr.Emit(telemetry.Event{
			Layer: telemetry.LayerApp, Name: telemetry.EvObjectDone,
			Flow: uint32(p.conn.Flow()), Msg: uint64(obj.ID), Bytes: obj.Size,
			Dur: m.Latency(), Detail: p.page.Name,
		})
		tr.Count("web_objects_loaded_total", 1)
	}
	if p.blocking[obj.ID] {
		p.blockingLeft--
		if p.blockingLeft == 0 {
			p.res.RenderReady = p.loop.Now() - p.start
		}
	}
	if len(obj.Children) > 0 {
		p.outstanding++ // hold onLoad open across the parse delay
		at := p.loop.Now() + max(obj.ParseDelay, 0)
		p.parsing = append(p.parsing, parseDue{at, obj})
		p.loop.At(at, p.parseFn)
	}
	p.settle()
}

// parsed runs when an object's parse delay has elapsed: it fetches the
// object's children.
func (p *pageLoad) parsed() {
	now := p.loop.Now()
	i := 0
	for p.parsing[i].at != now {
		i++
	}
	obj := p.parsing[i].obj
	p.parsing = append(p.parsing[:i], p.parsing[i+1:]...)
	for _, c := range obj.Children {
		p.fetch(c)
	}
	p.settle()
}

// settle retires one unit of outstanding work and fires onLoad when it
// was the last.
func (p *pageLoad) settle() {
	p.outstanding--
	if p.outstanding > 0 {
		return
	}
	p.res.PLT = p.loop.Now() - p.start
	p.conn.Close()
	if tr := p.opts.Tracer; tr.Enabled() {
		tr.Emit(telemetry.Event{
			Layer: telemetry.LayerApp, Name: telemetry.EvPageComplete,
			Flow: uint32(p.conn.Flow()), Bytes: p.res.Bytes,
			Dur: p.res.PLT, Value: float64(p.res.Objects), Detail: p.page.Name,
		})
		tr.Count("web_pages_loaded_total", 1)
	}
	p.done(p.res)
}

// Background runs the paper's two low-priority flows: a continuous
// 5 kB uploader and a continuous 10 kB downloader, each keeping a
// small pipeline of transfers in flight and issuing a replacement as
// each one completes.
type Background struct {
	up, down *transport.Conn
	stopped  bool

	// Uploads and Downloads count completed background transfers.
	Uploads, Downloads int
}

// UploadBytes and DownloadBytes are the background object sizes.
const (
	UploadBytes   = 5_000
	DownloadBytes = 10_000
	replyBytes    = 300
)

// backgroundDepth is how many transfers each background flow keeps in
// flight. A strict request/reply ping-pong (one transfer at a time)
// leaves the connection application-limited — at most one object per
// round trip regardless of its congestion window — so the "competing"
// flows never actually pressed on the bottleneck queue. A small
// pipeline keeps each flow window-limited, making background
// contention honest while preserving the small-object traffic shape.
const backgroundDepth = 4

// StartBackground launches both flows from ep. cfgFactory builds each
// flow's config (it is called twice — congestion-control state must
// not be shared between connections). Set FlowPriority to
// packet.PriorityBulk to give the steering layer the paper's
// flow-priority hint; leave it zero to reproduce the unhinted
// "DChannel" column.
func StartBackground(ep *transport.Endpoint, cfgFactory func() transport.Config) *Background {
	b := &Background{}
	cfg := cfgFactory()
	b.up = ep.Dial(cfg)
	upStream := b.up.NewStream()
	b.up.OnMessage(func(_ *transport.Conn, m transport.Message) {
		if b.stopped {
			return
		}
		b.Uploads++
		b.up.SendMessage(upStream, m.Priority, UploadBytes, &uploadEcho)
	})
	for i := 0; i < backgroundDepth; i++ {
		b.up.SendMessage(upStream, cfgPrio(cfg), UploadBytes, &uploadEcho)
	}

	cfg = cfgFactory()
	b.down = ep.Dial(cfg)
	downStream := b.down.NewStream()
	b.down.OnMessage(func(_ *transport.Conn, m transport.Message) {
		if b.stopped {
			return
		}
		b.Downloads++
		b.down.SendMessage(downStream, m.Priority, RequestBytes, &downloadEcho)
	})
	for i := 0; i < backgroundDepth; i++ {
		b.down.SendMessage(downStream, cfgPrio(cfg), RequestBytes, &downloadEcho)
	}
	return b
}

func cfgPrio(cfg transport.Config) packet.Priority {
	// Message priority mirrors the flow priority so that per-message
	// steering treats background data consistently.
	return cfg.FlowPriority
}

// Stop halts both flows after their current transfer.
func (b *Background) Stop() {
	b.stopped = true
	b.up.Close()
	b.down.Close()
}
