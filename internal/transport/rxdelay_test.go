package transport

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
)

func TestRxDelayInflatesMeasuredRTT(t *testing.T) {
	w := newWorld(53)
	var got []Message
	w.listen(serverCfg(w), &got)

	near := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.A)})
	far := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.A), RxDelay: 50 * time.Millisecond})
	near.SendMessage(near.NewStream(), 0, 200_000, nil)
	far.SendMessage(far.NewStream(), 0, 200_000, nil)
	w.loop.RunUntil(5 * time.Second)

	if len(got) != 2 {
		t.Fatalf("want both transfers delivered, got %d", len(got))
	}
	gap := far.SRTT() - near.SRTT()
	if gap < 40*time.Millisecond || gap > 80*time.Millisecond {
		t.Fatalf("RxDelay=50ms should inflate SRTT by about that much: near=%v far=%v",
			near.SRTT(), far.SRTT())
	}
}

func TestRxDelayDeterministic(t *testing.T) {
	run := func() (time.Duration, Stats) {
		w := newWorld(54)
		var got []Message
		w.listen(serverCfg(w), &got)
		c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.A), RxDelay: 30 * time.Millisecond})
		c.SendMessage(c.NewStream(), 0, 4<<20, nil)
		w.loop.RunUntil(20 * time.Second)
		if len(got) != 1 {
			t.Fatal("transfer incomplete")
		}
		return got[0].DeliveredAt, c.Stats()
	}
	at1, st1 := run()
	at2, st2 := run()
	if at1 != at2 || st1 != st2 {
		t.Fatalf("nondeterministic: %v/%+v vs %v/%+v", at1, st1, at2, st2)
	}
}

// receiveWithAfter is Endpoint.receive as it was before the per-flow
// hold (rxHold): a packet held for RxDelay rides a timer of its own, one
// closure and one event-queue entry each. Kept as the oracle the hold
// must be indistinguishable from.
func receiveWithAfter(e *Endpoint) func(*packet.Packet) {
	return func(p *packet.Packet) {
		c, ok := e.conns[p.Flow]
		if !ok {
			c = e.acceptConn(p)
			if c == nil {
				e.pool.Put(p)
				return
			}
		}
		if d := c.cfg.RxDelay; d > 0 {
			e.loop.After(d, func() {
				c.handlePacket(p)
				e.pool.Put(p)
			})
			return
		}
		c.handlePacket(p)
		e.pool.Put(p)
	}
}

// Holding a flow's packets on one lane is unobservable: on a lossy
// two-channel world with delayed and undelayed flows in both
// directions, one closing mid-transfer, every message arrives at the
// same instant, every connection ends with the same Stats and the loop
// runs the same number of events as when each held packet rides its own
// timer.
func TestRxDelayMatchesAfter(t *testing.T) {
	run := func(oracle bool) (log []string) {
		loop := sim.NewLoop(61)
		lossy := lossyBothWays(loop, 0.03)
		g := channel.NewGroup(lossy, channel.URLLC(loop))
		client, server := NewEndpoint(loop, g, channel.A), NewEndpoint(loop, g, channel.B)
		if oracle {
			for _, ch := range g.All() {
				ch.SetSink(channel.A, receiveWithAfter(client))
				ch.SetSink(channel.B, receiveWithAfter(server))
			}
		}
		note := func(c *Conn, m Message) {
			log = append(log, fmt.Sprintf("%v flow %d client %v: message %d, %d bytes, sent %v",
				m.DeliveredAt, c.Flow(), c.client, m.ID, m.Size, m.SentAt))
		}
		var accepted []*Conn
		server.Listen(func() Config {
			// The server holds every flow's data for 7 ms, delayed or not.
			return Config{CC: cc.NewCubic(), Steer: steering.NewDChannel(g, channel.B, steering.DChannelConfig{}), RxDelay: 7 * time.Millisecond}
		}, func(c *Conn) {
			accepted = append(accepted, c)
			c.OnMessage(func(c *Conn, m Message) {
				note(c, m)
				c.SendMessage(m.Stream, 0, 60_000, nil)
			})
		})
		var conns []*Conn
		for i, d := range []time.Duration{0, 13 * time.Millisecond, 40 * time.Millisecond, 13 * time.Millisecond} {
			c := client.Dial(Config{CC: cc.NewCubic(), Steer: steering.NewDChannel(g, channel.A, steering.DChannelConfig{}), RxDelay: d})
			c.OnMessage(note)
			conns = append(conns, c)
			loop.At(time.Duration(i)*30*time.Millisecond, func() { c.SendMessage(c.NewStream(), 0, 300_000, nil) })
		}
		// Close with packets on hold in both directions.
		loop.At(400*time.Millisecond, conns[2].Close)
		loop.RunUntil(20 * time.Second)
		for _, c := range append(conns, accepted...) {
			log = append(log, fmt.Sprintf("flow %d client %v: %+v srtt %v", c.Flow(), c.client, c.Stats(), c.SRTT()))
		}
		return append(log, fmt.Sprint(loop.Events(), " events, ", loop.Pending(), " pending"))
	}
	hold, after := run(false), run(true)
	if len(hold) < 12 {
		t.Fatalf("only %d lines logged: the transfers did not run", len(hold))
	}
	if !slices.Equal(hold, after) {
		i := 0
		for i < len(hold) && i < len(after) && hold[i] == after[i] {
			i++
		}
		t.Fatalf("hold and one timer per packet diverge at line %d of %d/%d:\n%q\n%q",
			i, len(hold), len(after), hold[i:min(i+1, len(hold))], after[i:min(i+1, len(after))])
	}
}

// Lane occurrences cannot be cancelled, so a Close leaves the held
// packets on hold: each still comes due, is ignored, and goes back to
// the pool, and nothing of the closed connection runs or counts.
func TestCloseWithHeldPackets(t *testing.T) {
	w := newWorld(62)
	var srv *Conn
	w.server.Listen(func() Config {
		return Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.B), RxDelay: 30 * time.Millisecond}
	}, func(c *Conn) { srv = c })
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.A), RxDelay: 30 * time.Millisecond})
	c.SendMessage(c.NewStream(), 0, 4<<20, nil)
	w.loop.RunUntil(time.Second)

	held := map[*packet.Packet]bool{}
	for _, conn := range []*Conn{c, srv} {
		if conn == nil || conn.rx == nil || conn.rx.q.len() == 0 {
			t.Fatalf("a connection holds nothing one second into the transfer: %+v", conn)
		}
		h := conn.rx
		for _, hp := range h.q.q[h.q.head:] {
			held[hp.p] = true
		}
		timers, pending := liveTimers(conn), w.loop.Pending()
		conn.Close()
		if got := pending - w.loop.Pending(); got != timers {
			t.Errorf("flow %d: Close cancelled %d events, want its %d timers and none of its %d held packets",
				conn.Flow(), got, timers, h.q.len())
		}
	}
	cStats, srvStats, pending := c.Stats(), srv.Stats(), w.loop.Pending()
	w.loop.RunUntil(10 * time.Second)

	if c.Stats() != cStats || srv.Stats() != srvStats {
		t.Errorf("closed connections kept counting:\n%+v -> %+v\n%+v -> %+v", cStats, c.Stats(), srvStats, srv.Stats())
	}
	for _, conn := range []*Conn{c, srv} {
		if n, m := conn.rx.q.len(), conn.rx.lane.Len(); n != 0 || m != 0 {
			t.Errorf("flow %d: %d packets still held, %d releases pending", conn.Flow(), n, m)
		}
	}
	// What was pending at the Close has run: the held packets, and the
	// packets then on the links, which found no connection.
	if got := w.loop.Pending(); got != 0 {
		t.Errorf("%d events pending long after both ends closed (%d at the Close)", got, pending)
	}
	// Every held packet is back in the pool: drain it and look.
	pool := w.group.Pool()
	for i := 0; i < 1<<16 && len(held) > 0; i++ {
		delete(held, pool.Get())
	}
	if len(held) != 0 {
		t.Errorf("%d held packets never came back to the pool", len(held))
	}
	// The owner audit: every record of both arenas is free and unstamped.
	for _, e := range []*Endpoint{w.client, w.server} {
		for _, ch := range e.rec.freeChunks {
			if ch.owner != 0 || ch.sub != nil || len(ch.copies) != 0 {
				t.Fatalf("free chunk still stamped: %+v", ch)
			}
		}
	}
}

// holdDrive is one connection whose arriving packets are held for
// RxDelay, fed directly at the endpoint: each step offers it one
// duplicate acknowledgment — the cheapest packet to process — and runs
// the one event that costs, the release of the oldest of a standing
// backlog.
type holdDrive struct {
	w    *world
	conn *Conn
}

func newHoldDrive(standing int) *holdDrive {
	w := newWorld(1)
	// Unreliable: no handshake, no timers, so every event is a release.
	d := &holdDrive{w: w, conn: w.client.Dial(Config{Steer: w.embbOnly(), Unreliable: true, RxDelay: 20 * time.Millisecond})}
	for i := 0; i < standing; i++ {
		d.offer()
	}
	for i := 0; i < 4*standing; i++ { // grow the hold's queue, the lane's ring and the pool
		d.step()
	}
	return d
}

func (d *holdDrive) offer() {
	e := d.w.client
	p := e.pool.Get()
	pl := e.ackBox(p)
	pl.ranges = pl.ranges[:0]
	*p = packet.Packet{Flow: d.conn.flow, Kind: packet.Ack, Size: packet.HeaderBytes, Payload: pl}
	e.receive(p)
}

func (d *holdDrive) step() {
	d.offer()
	if !d.w.loop.Step() {
		panic("nothing held")
	}
}

// BenchmarkRxDelayHold reports what holding one packet costs a delayed
// flow with 256 on hold: queue it, file its release, run the release.
func BenchmarkRxDelayHold(b *testing.B) {
	d := newHoldDrive(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.step()
	}
	b.StopTimer()
	if n := d.conn.rx.q.len(); n != 256 {
		b.Fatalf("%d packets on hold, want a standing 256", n)
	}
}

// Once its queue has grown to the backlog, a delayed flow holds a
// packet without allocating: no closure, no queue entry. One timer per
// held packet cost an allocation each.
func TestRxDelayHoldAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	d := newHoldDrive(256)
	if avg := testing.AllocsPerRun(2000, d.step); avg != 0 {
		t.Errorf("holding a packet allocates %v/op in steady state, want 0", avg)
	}
	if got := d.w.loop.Queued(); got > 2 {
		t.Errorf("the event queue holds %d entries for one delayed flow, want its next release only", got)
	}
}
