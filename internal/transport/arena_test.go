package transport

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/invariant"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
)

// shortConns is an endpoint pair whose server answers every request
// with a response of pkts packets: the many-short-connections regime of
// a page load, one connection at a time. Each session dials a fresh
// client and the server accepts it on a fresh connection.
type shortConns struct {
	w        *world
	srv      *Conn // the server side of the session in progress
	pkts     int
	deadline time.Duration
	// keepServer leaves each server connection open after its session,
	// as a web server's are: nothing tells it that its client closed.
	keepServer bool
}

const shortConnPackets = 40

func newShortConns(pkts int, keepServer bool) *shortConns {
	s := &shortConns{w: newWorld(1), pkts: pkts, keepServer: keepServer}
	respond := func(c *Conn, m Message) {
		c.SendMessage(m.Stream, m.Priority, s.pkts*packet.MaxPayload, nil)
	}
	s.w.server.Listen(serverCfg(s.w), func(c *Conn) {
		s.srv = c
		c.OnMessage(respond)
	})
	return s
}

// session runs one connection from dial to close: handshake, request,
// response, and the client (and, unless keepServer, the server) closed
// once the last ack has gone out.
func (s *shortConns) session() {
	c := s.w.client.Dial(Config{CC: cc.NewCubic(), Steer: s.w.dchannel(channel.A)})
	c.SendMessage(c.NewStream(), 0, 400, nil)
	s.deadline += 2 * time.Second
	s.w.loop.RunUntil(s.deadline)
	if got := c.Stats().MsgsDelivered; got != 1 {
		panic("short connection delivered no response")
	}
	if len(s.srv.sentOrder) != 0 || s.srv.sentBase != nil {
		panic("the server's flight did not drain")
	}
	c.Close()
	if !s.keepServer {
		s.srv.Close()
	}
}

// sessionSetupAllocs is what one shortConns session may allocate: the
// two connections themselves — each side's Conn, its reassembly map, its
// pre-bound callbacks, its controller and steering policy, and the
// arrays a Conn owns (SACK ranges, the scheduler's priority level; the
// channel tables are inline for two channels) — and nothing per packet:
// the records and the in-flight window are the arena's.
const sessionSetupAllocs = 34

// A world's second connection runs on the records its first one grew.
func TestSecondConnectionAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := newShortConns(shortConnPackets, false)
	s.session() // warm: grows the arenas, the packet pool, the link rings, the loop
	got := testing.AllocsPerRun(10, s.session)
	if got > sessionSetupAllocs {
		t.Errorf("a warm endpoint pair's next %d-packet connection allocated %.0f objects, want <= %d (connection set-up only)",
			shortConnPackets, got, sessionSetupAllocs)
	}
	t.Logf("%.0f allocations per session", got)
}

const responsePackets = 400

// A web server accepts every page on a fresh connection and never closes
// it, so a window array its connection kept would be garbage at every
// response; one the arena lends comes back each time the flight drains.
// A warm endpoint pair's several-hundred-packet response then costs what
// a one-packet response does: the connections' set-up, no window growth.
func TestServerFlightArrayReused(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	perResponse := func(pkts int) uint64 {
		s := newShortConns(pkts, true)
		for i := 0; i < 3; i++ {
			s.session() // warm: the arenas, the packet pool, the link rings, the loop
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			s.session()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 50
	}
	setup, big := perResponse(1), perResponse(responsePackets)
	t.Logf("bytes per response: %d for one packet, %d for %d", setup, big, responsePackets)
	// The slack, half of the smallest growth a window can make (64 to
	// 128 slots, 1 KiB), covers the per-connection arrays a longer
	// response grows: the receiver's SACK ranges as URLLC copies
	// overtake eMBB ones, and the list of records one ack retires.
	if big > setup+512 {
		t.Errorf("a %d-packet response allocated %d bytes, a one-packet one %d: the flight's window grew",
			responsePackets, big, setup)
	}
}

// BenchmarkServerResponses is web's shape over one warm endpoint pair:
// a fresh client and server connection per request, a 400-packet
// response, and a server that never closes.
func BenchmarkServerResponses(b *testing.B) {
	s := newShortConns(responsePackets, true)
	s.session()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.session()
	}
}

// BenchmarkShortConns is the short-connection regime BenchmarkMessage-
// RoundTrip's one long-lived connection cannot see: dial, a 40-packet
// response, close, repeated over one endpoint pair.
func BenchmarkShortConns(b *testing.B) {
	s := newShortConns(shortConnPackets, false)
	s.session()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.session()
	}
}

// A steady message stream costs the send scheduler nothing: its FIFOs
// reuse their arrays and its records come back from the arena.
func TestSchedulerFIFOAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	rec := &arena{}
	s := &scheduler{rec: rec, flow: 2}
	for _, prios := range []int{1, 3} {
		stream := func() {
			for i := 0; i < 1000; i++ {
				m := rec.newMsg(2)
				m.id, m.prio, m.size = uint64(i), packet.Priority(i%prios), 100
				s.push(m)
				ch := s.next(false)
				// A loss now and then: the chunk goes round the retx queue
				// before it is done.
				if i%4 == 0 {
					s.retx.push(ch)
					ch = s.next(false)
				}
				if ch.frag.msgID != uint64(i) {
					t.Fatalf("message %d came out as chunk of %d", i, ch.frag.msgID)
				}
				rec.freeChunk(2, ch)
			}
		}
		stream() // warm-up
		if got := testing.AllocsPerRun(3, stream); got != 0 {
			t.Errorf("1000 push/next at %d priorities allocated %.0f objects, want 0", prios, got)
		}
		if !s.empty() {
			t.Fatal("scheduler kept something")
		}
	}
}

// A standing backlog must not make the FIFO grow with the messages
// that have passed through it.
func TestFIFOBoundedUnderBacklog(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 8; i++ {
		f.push(i)
	}
	for i := 8; i < 100_000; i++ {
		f.push(i)
		if got := f.pop(); got != i-8 {
			t.Fatalf("popped %d, want %d", got, i-8)
		}
	}
	if f.len() != 8 || cap(f.q) > 64 {
		t.Fatalf("backlog of %d sits in an array of %d", f.len(), cap(f.q))
	}
}

// bareConn is a connection with no endpoint, drawing on an arena of its
// own: send-side state for driving the ack path directly.
func bareConn(flow packet.FlowID) *Conn {
	rec := &arena{}
	return &Conn{rec: rec, flow: flow, sched: scheduler{rec: rec, flow: flow}}
}

// violation runs fn and returns the invariant violation it panics with.
func violation(t *testing.T, fn func()) (v *invariant.Violation) {
	t.Helper()
	defer func() {
		err, _ := recover().(error)
		if !errors.As(err, &v) {
			t.Fatalf("want an invariant violation, got %v", err)
		}
	}()
	fn()
	return nil
}

// Records cross connections now, so the arena polices who holds them.
func TestRecordOwnerInvariants(t *testing.T) {
	if !invariant.Compiled {
		t.Skip("invariant layer compiled out")
	}
	rec := &arena{}
	ch := rec.newChunk(2)
	if v := violation(t, func() { rec.freeChunk(4, ch) }); v.Layer != "transport" || v.Name != "record-owner" {
		t.Errorf("another flow's release: %v", v)
	}
	rec.freeChunk(2, ch)
	if v := violation(t, func() { rec.freeChunk(2, ch) }); v.Name != "double-free" {
		t.Errorf("second release: %v", v)
	}
	// A connection that kept a pointer past release trips on it the next
	// time its ack path gets there, whoever holds the record by then.
	c := &Conn{rec: rec, flow: 2, sched: scheduler{rec: rec, flow: 2}}
	stale := rec.newChunk(2)
	stale.seq = 1
	c.appendSent(stale)
	rec.freeChunk(2, stale)
	if got := rec.newChunk(4); got != stale {
		t.Fatal("the arena is not LIFO")
	}
	if v := violation(t, func() { c.ackRanges([]seqRange{{1, 1}}) }); v.Name != "record-owner" {
		t.Errorf("ack of a record lent to another flow: %v", v)
	}
	// And a free list must never hand out a record somebody holds.
	rec.freeChunks = append(rec.freeChunks, stale)
	if v := violation(t, func() { rec.newChunk(6) }); v.Name != "record-owner" {
		t.Errorf("acquire of a held record: %v", v)
	}
}

// A packet replicated over three channels carries a copy more than a
// chunk holds inline: its copies spill to an array of their own, every
// channel's send index still counts towards loss detection, and the
// chunk comes back from the arena with no copies, spilled array or not.
func TestChunkCopiesSpill(t *testing.T) {
	c := bareConn(2)
	c.sub0[0].alg = fixedWindow{64 * cc.MSS}
	c.subs = c.sub0[:]
	names := []string{"a", "b", "c"}
	for _, name := range names {
		c.chanID(name)
	}
	sendOn := func(ids ...int) *chunk {
		ch := c.rec.newChunk(c.flow)
		c.nextSeq++
		ch.seq, ch.size, ch.sub = c.nextSeq, 100, &c.subs[0]
		for _, id := range ids {
			c.sentIndex[id]++
			ch.copies = append(ch.copies, chanCopy{id, c.sentIndex[id]})
		}
		c.bytesInFlight += ch.size
		ch.sub.inflight += ch.size
		c.appendSent(ch)
		return ch
	}
	// The replicated packet, then ackAfterGap packets on each channel
	// but the last, which gets one fewer.
	lost := sendOn(0, 1, 2)
	if len(lost.copies) != 3 || &lost.copies[0] == &lost.inl[0] {
		t.Fatalf("three copies: %v, inline: %v", lost.copies, &lost.copies[0] == &lost.inl[0])
	}
	for i := 0; i < ackAfterGap; i++ {
		sendOn(0)
		sendOn(1)
		if i > 0 {
			sendOn(2)
		}
	}
	ack := func() {
		last := c.sentOrder[len(c.sentOrder)-1].seq
		c.largestAcked = c.ackRanges([]seqRange{{lost.seq + 1, last}}).seq
		c.subs[0].ackNewest, c.subs[0].ackBytes = nil, 0
		c.recycleAcked()
		c.detectLosses(0)
	}
	ack()
	if c.stats.Retransmits != 0 || len(c.sentOrder) != 1 {
		t.Fatalf("lost with %d later packets acked on channel c, want %d: %d retransmits, %d in flight",
			ackAfterGap-1, ackAfterGap, c.stats.Retransmits, len(c.sentOrder))
	}
	sendOn(2)
	ack()
	if c.stats.Retransmits != 1 || len(c.sentOrder) != 0 || c.sched.retx.len() != 1 {
		t.Fatalf("%d retransmits, %d in flight, %d queued; want the replicated packet lost",
			c.stats.Retransmits, len(c.sentOrder), c.sched.retx.len())
	}
	if ch := c.sched.retx.pop(); ch != lost || ch.owner != c.flow || len(ch.copies) != 0 {
		t.Fatalf("requeued chunk: %p (want %p), owner %d, %d copies", ch, lost, ch.owner, len(ch.copies))
	}
	spilled := cap(lost.copies)
	c.rec.freeChunk(c.flow, lost)
	if got := c.rec.newChunk(4); got != lost || len(got.copies) != 0 || cap(got.copies) != spilled {
		t.Fatalf("re-lent chunk: %p (want %p) with %d copies in %d slots, want none in its %d",
			got, lost, len(got.copies), cap(got.copies), spilled)
	}
}

// A window array comes back from the arena empty: one that still holds
// a record — a flight dropped without clearing its slots — is caught
// when it is lent again, before a stale pointer can be read from it.
func TestFlightArrayCleanInvariant(t *testing.T) {
	if !invariant.Compiled {
		t.Skip("invariant layer compiled out")
	}
	rec := &arena{}
	w := rec.newWindow(64)
	if cap(w) != 64 {
		t.Fatalf("a fresh window has %d slots, want 64", cap(w))
	}
	w = append(w, rec.newChunk(2))
	rec.freeWindow(w)
	if v := violation(t, func() { rec.newWindow(64) }); v.Layer != "transport" || v.Name != "flight-array-clean" {
		t.Errorf("lend of a window holding a record: %v", v)
	}
	// Best fit: the smallest free array that holds the request.
	rec = &arena{}
	for _, n := range []int{256, 64, 1024, 128} {
		rec.freeWindow(make([]*chunk, 0, n))
	}
	for _, c := range []struct{ n, want int }{{100, 128}, {100, 256}, {64, 64}, {2048, 2048}, {1, 1024}} {
		if got := cap(rec.newWindow(c.n)); got != c.want {
			t.Errorf("newWindow(%d) lent %d slots, want %d", c.n, got, c.want)
		}
	}
}

// The packet ledger holds a world to its pool: a packet taken from the
// pool and never sent is on no link and on no hold, and a packet put
// back twice is caught at the second Put.
func TestPacketLedgerInvariants(t *testing.T) {
	if !invariant.Compiled {
		t.Skip("invariant layer compiled out")
	}
	w := newWorld(1)
	pool := w.group.Pool()
	p := pool.Get()
	if v := violation(t, func() { CheckLedger(w.client, w.server) }); v.Layer != "packet" || v.Name != "ledger" {
		t.Errorf("a packet out of the pool and nowhere else: %v", v)
	}
	pool.Put(p)
	CheckLedger(w.client, w.server)
	if v := violation(t, func() { pool.Put(p) }); v.Layer != "packet" || v.Name != "double-put" {
		t.Errorf("second Put of one packet: %v", v)
	}
}

// liveTimers counts the connection's armed timers.
func liveTimers(c *Conn) int {
	n := 0
	for _, tm := range []*sim.Timer{&c.synTimer, &c.pacingTimer, &c.retryTimer, &c.rtoTimer, &c.ackTimer} {
		if tm.Active() {
			n++
		}
	}
	for _, rm := range c.rcvMsgs {
		if rm.expiry.Active() {
			n++
		}
	}
	return n
}

// Close used to stop five timers and forget the flow: an unreliable
// receiver's expiry timers stayed armed and went on counting expired
// messages on the closed connection, and every record it held was
// abandoned.
func TestCloseLeavesNothingBehind(t *testing.T) {
	loop := sim.NewLoop(8)
	lossy := channel.New(loop, channel.Config{
		Props:     channel.Properties{Name: channel.NameEMBB, BaseRTT: 20 * time.Millisecond, Bandwidth: 50e6, LossProb: 0.3},
		DownTrace: trace.Constant("e", 20*time.Millisecond, 50e6),
	})
	clean := channel.New(loop, channel.Config{
		Props:     channel.Properties{Name: "clean", BaseRTT: 20 * time.Millisecond, Bandwidth: 50e6},
		DownTrace: trace.Constant("c", 20*time.Millisecond, 50e6),
	})
	g := channel.NewGroup(lossy, clean)
	client, server := NewEndpoint(loop, g, channel.A), NewEndpoint(loop, g, channel.B)
	var rx, tx *Conn
	server.Listen(func() Config {
		return Config{CC: cc.NewCubic(), Steer: steering.NewSingle(clean), MsgTimeout: 200 * time.Millisecond}
	}, func(c *Conn) {
		if c.cfg.Unreliable {
			rx = c
		} else {
			tx = c
			c.OnMessage(func(c *Conn, m Message) { c.SendMessage(m.Stream, 0, 1<<20, nil) })
		}
	})

	// An unreliable stream over a lossy channel, whose messages mostly
	// lose a packet (rx holds them half-reassembled, one expiry timer
	// each), and a reliable request over a clean one, whose megabyte
	// response is in full flight (tx holds a window of records, a queued
	// message, an RTO).
	media := client.Dial(Config{Steer: steering.NewSingle(lossy), Unreliable: true})
	st := media.NewStream()
	for i := 0; i < 10; i++ {
		loop.At(time.Duration(i)*10*time.Millisecond, func() { media.SendMessage(st, 0, 30_000, nil) })
	}
	page := client.Dial(Config{CC: cc.NewCubic(), Steer: steering.NewSingle(clean)})
	page.SendMessage(page.NewStream(), 0, 400, nil)
	loop.RunUntil(150 * time.Millisecond)

	if rx == nil || tx == nil {
		t.Fatalf("server connections: unreliable %v, reliable %v", rx, tx)
	}
	if len(rx.rcvMsgs) == 0 || len(tx.sentOrder) == 0 || tx.sched.empty() {
		t.Fatalf("nothing to leave behind: %d partial messages, %d packets in flight, scheduler empty: %v",
			len(rx.rcvMsgs), len(tx.sentOrder), tx.sched.empty())
	}
	for _, c := range []*Conn{rx, tx} {
		timers, pending := liveTimers(c), loop.Pending()
		held := len(c.rcvMsgs)
		free := len(server.rec.freeRcvMsgs)
		if timers == 0 {
			t.Fatalf("flow %d has no timer armed", c.Flow())
		}
		c.Close()
		c.Close() // idempotent
		if got := pending - loop.Pending(); got != timers {
			t.Errorf("flow %d: Close cancelled %d events, want its %d timers", c.Flow(), got, timers)
		}
		if n := liveTimers(c); n != 0 {
			t.Errorf("flow %d: %d timers survive Close", c.Flow(), n)
		}
		if got := len(server.rec.freeRcvMsgs) - free; got != held {
			t.Errorf("flow %d: %d reassembly records came back, want %d", c.Flow(), got, held)
		}
		if len(c.sentOrder) != 0 || c.sentBase != nil || !c.sched.empty() || len(c.rcvMsgs) != 0 {
			t.Errorf("flow %d still holds records or its window after Close", c.Flow())
		}
	}
	if len(server.rec.freeWindows) == 0 {
		t.Error("the closed flight's window array did not come back to the arena")
	}
	for _, ch := range server.rec.freeChunks {
		if ch.owner != 0 || ch.sub != nil || len(ch.copies) != 0 {
			t.Fatalf("free chunk still stamped: %+v", ch)
		}
	}
	rxStats, txStats := rx.Stats(), tx.Stats()
	loop.RunUntil(10 * time.Second)
	if rx.Stats() != rxStats || tx.Stats() != txStats {
		t.Errorf("closed connections kept counting:\n%+v -> %+v\n%+v -> %+v", rxStats, rx.Stats(), txStats, tx.Stats())
	}
}

// Retire hands a finished world's free lists to the next world built:
// a free fragment box forgets its message and a free reassembly record
// its loop's timer; Adopt lends the next world's
// endpoints, by side, what the first one's grew.
func TestRetireHandsOnFreeListsOnly(t *testing.T) {
	spares.Store(nil) // whatever earlier tests retired
	w := newWorld(1)
	w.server.Listen(func() Config {
		return Config{Steer: w.embbOnly(), Unreliable: true, MsgTimeout: time.Second}
	}, func(*Conn) {})
	msg := &[64]byte{}
	c := w.client.Dial(Config{Steer: w.embbOnly(), Unreliable: true})
	for i := 0; i < 5; i++ {
		c.SendMessage(0, 0, 3*packet.MaxPayload, msg)
	}
	w.loop.RunUntil(time.Second)
	chunks, rcvMsgs := len(w.client.rec.freeChunks), len(w.server.rec.freeRcvMsgs)
	if chunks == 0 || rcvMsgs == 0 {
		t.Fatalf("the run freed %d chunks and %d reassembly records, want some of each", chunks, rcvMsgs)
	}

	Retire(w.client, w.server)
	s := spares.Load()
	if s == nil {
		t.Fatal("Retire left no spare")
	}
	if n := len(w.client.rec.freeChunks) + len(w.server.rec.freeRcvMsgs); n != 0 {
		t.Errorf("%d free records stayed with the retired world", n)
	}
	if n := len(s.arenas[channel.A].freeChunks); n != chunks {
		t.Errorf("spare holds %d chunks, want %d", n, chunks)
	}
	for _, rm := range s.arenas[channel.B].freeRcvMsgs {
		if rm.expiry != (sim.Timer{}) {
			t.Fatal("a retired reassembly record still names its loop's timer")
		}
	}
	pool, frags := s.pool, 0
	for {
		p := pool.Get()
		if p.Payload == nil {
			break // a fresh packet: every transport packet has a box
		}
		if f, ok := p.Payload.(*fragment); ok {
			frags++
			if f.data != nil {
				t.Fatal("a retired fragment box still holds its message")
			}
		}
	}
	if frags == 0 {
		t.Error("no free packet with a fragment box crossed")
	}

	next := newWorld(2)
	Adopt(next.client, next.server)
	if len(next.client.rec.freeChunks) != chunks || len(next.server.rec.freeRcvMsgs) != rcvMsgs {
		t.Errorf("adopted %d chunks and %d reassembly records, want %d and %d",
			len(next.client.rec.freeChunks), len(next.server.rec.freeRcvMsgs), chunks, rcvMsgs)
	}
	if spares.Load() != nil {
		t.Error("an adopted spare is still waiting")
	}
}
