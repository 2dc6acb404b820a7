package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
)

// BenchmarkMessageRoundTrip drives a steady stream of messages through
// the full stack — fragmentation, steering, netem, reassembly, acks —
// and reports allocations per message. In steady state the shared
// packet pool (packets and their payload boxes) and the transport free lists
// (chunks, reassembly state) keep this near zero.
func BenchmarkMessageRoundTrip(b *testing.B) {
	w := newWorld(1)
	var got []Message
	w.listen(serverCfg(w), &got)
	c := w.client.Dial(Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.A)})
	st := c.NewStream()
	// Warm up: complete the handshake and grow every free list.
	for i := 0; i < 64; i++ {
		c.SendMessage(st, 0, 8000, nil)
	}
	w.loop.RunUntil(5 * time.Second)
	if len(got) != 64 {
		b.Fatalf("warm-up delivered %d messages, want 64", len(got))
	}
	deadline := w.loop.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SendMessage(st, 0, 8000, nil)
		deadline += time.Second
		w.loop.RunUntil(deadline)
	}
	b.StopTimer()
	if len(got) != 64+b.N {
		b.Fatalf("delivered %d messages, want %d", len(got), 64+b.N)
	}
}

// fixedWindow is a congestion controller that never reacts: a constant
// window, so a drive's flight depth is whatever the test chose.
type fixedWindow struct{ bytes int }

func (f fixedWindow) Name() string              { return "fixed" }
func (f fixedWindow) CWND() int                 { return f.bytes }
func (f fixedWindow) PacingRate() float64       { return 0 }
func (f fixedWindow) OnSent(time.Duration, int) {}
func (f fixedWindow) OnAck(cc.AckEvent)         {}
func (f fixedWindow) OnLoss(cc.LossEvent)       {}

// bulkDrive is one endless bulk flow holding a fixed window of packets
// in flight over ideal channels (10 ms, 10 Gbps, no loss): every RTT
// the whole window is sent, delivered, acked, and refilled, so the
// flow stays saturated for as many packets as a test asks for. With
// one channel the flow is single-path; with more it is multipath, one
// subflow and one window per channel.
type bulkDrive struct {
	loop           *sim.Loop
	client, server *Endpoint
	conn           *Conn
	srv            *Conn
	deadline       time.Duration
}

func newBulkDrive(window, channels int) *bulkDrive {
	loop := sim.NewLoop(1)
	var chs []*channel.Channel
	for i := 0; i < channels; i++ {
		name := fmt.Sprint("ideal", i)
		chs = append(chs, channel.New(loop, channel.Config{
			Props:      channel.Properties{Name: name, BaseRTT: 10 * time.Millisecond, Bandwidth: 10e9},
			DownTrace:  trace.Constant(name, 10*time.Millisecond, 10e9),
			QueueBytes: 64 << 20,
		}))
	}
	cfg := func(window int) Config {
		if channels > 1 {
			return Config{Multipath: true, NewCC: func() cc.Algorithm { return fixedWindow{window * cc.MSS} }}
		}
		return Config{CC: fixedWindow{window * cc.MSS}, Steer: steering.NewSingle(chs[0])}
	}
	d := startDrive(loop, channel.NewGroup(chs...), cfg, window)
	d.run(2 * window * channels) // handshake, then fill the windows and every free list
	return d
}

// startDrive dials the drive's flow across g: cfg(window) for the
// client, cfg(64) for the server, which only acknowledges.
func startDrive(loop *sim.Loop, g *channel.Group, cfg func(window int) Config, window int) *bulkDrive {
	d := &bulkDrive{loop: loop, client: NewEndpoint(loop, g, channel.A), server: NewEndpoint(loop, g, channel.B)}
	d.server.Listen(func() Config { return cfg(64) }, func(c *Conn) { d.srv = c })
	d.conn = d.client.Dial(cfg(window))
	d.conn.SendMessage(d.conn.NewStream(), 0, 1<<40, nil)
	return d
}

// newLossyDrive is a bulk flow over two lossy, shallow channels — 2 %
// i.i.d. loss each way, a 16 KB entry queue against a window of more
// than the path holds — that stays on the first channel or replicates
// every packet over both. In every round trip data and acks are lost
// in flight and data is refused at entry, the original of a replicated
// packet included.
func newLossyDrive(replicate bool) *bulkDrive {
	loop := sim.NewLoop(1)
	var chs []*channel.Channel
	for i := 0; i < 2; i++ {
		name := fmt.Sprint("lossy", i)
		chs = append(chs, channel.New(loop, channel.Config{
			Props:      channel.Properties{Name: name, BaseRTT: 10 * time.Millisecond, Bandwidth: 100e6, LossProb: 0.02},
			DownTrace:  trace.Constant(name, 10*time.Millisecond, 100e6),
			QueueBytes: 16 << 10,
		}))
	}
	g := channel.NewGroup(chs...)
	cfg := func(window int) Config {
		pol := steering.Policy(steering.NewSingle(chs[0]))
		if replicate {
			pol = steering.NewRedundant(g)
		}
		return Config{CC: fixedWindow{window * cc.MSS}, Steer: pol}
	}
	d := startDrive(loop, g, cfg, 128)
	d.run(4096) // handshake, then grow every free list to the losses' churn
	return d
}

// lossyShapes are the lossy drive's two steering regimes.
var lossyShapes = []struct {
	name      string
	replicate bool
}{{"single-path", false}, {"replicated", true}}

// losses counts the packets the drive's links dropped, at entry or in
// flight.
func (d *bulkDrive) losses() int {
	n := 0
	for _, ch := range d.client.group.All() {
		for _, side := range []channel.Side{channel.A, channel.B} {
			st := ch.Stats(side)
			n += st.DroppedQueue + st.DroppedRandom
		}
	}
	return n
}

// received reports the data packets delivered so far.
func (d *bulkDrive) received() int {
	if d.srv == nil {
		return 0
	}
	return int(d.srv.Stats().BytesReceived) / packet.MaxPayload
}

// run advances the flow, one RTT at a time, until at least pkts more
// packets are delivered, and reports how many were.
func (d *bulkDrive) run(pkts int) int {
	start := d.received()
	for d.received()-start < pkts {
		d.deadline += 10 * time.Millisecond
		d.loop.RunUntil(d.deadline)
	}
	return d.received() - start
}

// ackDrive is a bare connection's send-side state with a standing
// flight of window packets, dealt round-robin to its subflows (one
// channel each), for exercising the ack path with nothing under or
// over it: each step sends two packets and applies the ack that
// retires the two oldest, exactly the sequence handleAck runs
// (resolve, settle per subflow, recycle, detect losses) minus the
// controllers and the timers.
type ackDrive struct {
	c      *Conn
	chs    []int // each subflow's channel ID
	turn   int   // the subflow the next packet goes to
	ranges []seqRange
	// split acks the two oldest packets as a range each, after whatever
	// stale ranges withStale put in front, instead of cumulatively.
	split bool
}

func newAckDrive(window, subflows int) *ackDrive {
	d := &ackDrive{c: bareConn(2), ranges: make([]seqRange, 1)}
	d.c.subs = make([]subflow, subflows)
	for i := range d.c.subs {
		d.chs = append(d.chs, d.c.chanID(fmt.Sprint("ideal", i)))
	}
	for i := 0; i < window; i++ {
		d.send()
	}
	for i := 0; i < 2*window; i++ { // drift the flight once around its backing array
		d.step()
	}
	return d
}

// withStale turns the drive's ack into what a receiver sends once it
// has holes that will never fill: n ranges wholly below the flight,
// then one range for each of the two packets a step retires.
func (d *ackDrive) withStale(n int) *ackDrive {
	d.split = true
	d.ranges = d.ranges[:0]
	for i := 0; i < n; i++ {
		d.ranges = append(d.ranges, seqRange{uint64(2*i + 1), uint64(2*i + 1)})
	}
	if n > 0 && d.ranges[n-1].hi >= d.c.sentOrder[0].seq {
		panic("the stale ranges reach the flight")
	}
	d.ranges = append(d.ranges, seqRange{}, seqRange{})
	return d
}

func (d *ackDrive) send() {
	c := d.c
	ch := c.rec.newChunk(c.flow)
	c.nextSeq++
	i := d.turn
	if d.turn++; d.turn == len(c.subs) {
		d.turn = 0
	}
	id := d.chs[i]
	c.sentIndex[id]++
	ch.seq, ch.size = c.nextSeq, packet.MaxPayload
	ch.sub = &c.subs[i]
	ch.copies = append(ch.copies, chanCopy{id, c.sentIndex[id]})
	c.bytesInFlight += ch.size
	ch.sub.inflight += ch.size
	c.appendSent(ch)
}

func (d *ackDrive) step() {
	c := d.c
	d.send()
	d.send()
	if s0, s1 := c.sentOrder[0].seq, c.sentOrder[1].seq; d.split {
		d.ranges[len(d.ranges)-2], d.ranges[len(d.ranges)-1] = seqRange{s0, s0}, seqRange{s1, s1}
	} else {
		d.ranges[0] = seqRange{1, s1} // cumulative, as a loss-free receiver acks
	}
	c.largestAcked = c.ackRanges(d.ranges).seq
	for i := range c.subs {
		c.subs[i].ackNewest, c.subs[i].ackBytes = nil, 0 // as subflowAcked consumes them
	}
	c.recycleAcked()
	c.detectLosses(0)
}

// BenchmarkAckPath reports the ack path's cost per acknowledged packet
// at three flight depths of one subflow — TestAckPathWindowIndependent
// holds the deepest within 1.5× of the shallowest — and with the
// flight split over two subflows.
func BenchmarkAckPath(b *testing.B) {
	for _, shape := range []struct {
		name             string
		window, subflows int
	}{{"w32", 32, 1}, {"w2048", 2048, 1}, {"w8192", 8192, 1}, {"multipath", 2048, 2}} {
		b.Run(shape.name, func(b *testing.B) {
			d := newAckDrive(shape.window, shape.subflows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 {
				d.step()
			}
			if got := len(d.c.sentOrder); got != shape.window {
				b.Fatalf("flight is %d packets, want %d", got, shape.window)
			}
		})
	}
}

// BenchmarkAckResolveStale32 is the ack a flow sees for the rest of its
// life after its first losses: maxAckRanges ranges of which two reach the
// flight. Per acknowledged packet, like BenchmarkAckPath.
func BenchmarkAckResolveStale32(b *testing.B) {
	d := newAckDrive(2048, 1).withStale(maxAckRanges - 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		d.step()
	}
	if got := len(d.c.sentOrder); got != 2048 {
		b.Fatalf("flight is %d packets, want 2048", got)
	}
}

// timeSteps times steps steps of an ack drive.
func timeSteps(d *ackDrive, steps int) time.Duration {
	start := time.Now()
	for i := 0; i < steps; i++ {
		d.step()
	}
	return time.Since(start)
}

// An ack pays for the ranges that reach the flight, not for the history
// in front of them: 30 stale ranges ahead of the two live ones must not
// double its cost. Probing each stale range, as the resolution did, made
// the 32-range ack several times the 2-range one. Timed in alternation,
// one clean pair is enough (see TestAckPathWindowIndependent).
func TestStaleRangesAreSkipped(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("timing budget: not under -race or -short")
	}
	const steps = 200_000
	live, stale := newAckDrive(2048, 1).withStale(0), newAckDrive(2048, 1).withStale(maxAckRanges-2)
	var ratios []float64
	for try := 0; try < 7; try++ {
		ratio := float64(timeSteps(stale, steps)) / float64(timeSteps(live, steps))
		if ratio <= 2 {
			return
		}
		ratios = append(ratios, ratio)
	}
	t.Errorf("a 32-range ack with 2 live ranges costs %.2f× a 2-range ack in every try, want <= 2×", ratios)
}

// The ack path's cost must not depend on how deep the flight is: the
// O(flight) merge-join this replaces was 5× slower at 2048 packets
// than at 32, and worse beyond. Timing on a shared machine is noisy,
// so the two depths are timed in alternation and one clean pair is
// enough; a path that scales with the window fails every pair.
func TestAckPathWindowIndependent(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("timing budget: not under -race or -short")
	}
	const steps = 200_000
	shallow, deep := newAckDrive(32, 1), newAckDrive(8192, 1)
	var ratios []float64
	for try := 0; try < 7; try++ {
		ratio := float64(timeSteps(deep, steps)) / float64(timeSteps(shallow, steps))
		if ratio <= 1.5 {
			return
		}
		ratios = append(ratios, ratio)
	}
	t.Errorf("ack path at w8192 costs %.2f× its w32 cost per packet in every try, want <= 1.5×", ratios)
}

// The event queue holds the flow's timers, not its packets: however
// many packets a saturated flow keeps in flight, the loop files a link's
// next arrival only (the rest wait in the link's lane) and the RTO,
// pushed out on every ack, keeps its one entry. Physical occupancy —
// tombstones included — after every event of two windows' worth of
// steady state stays within a handful of entries at every depth; with
// one entry per in-flight packet and a cancelled RTO per ack it was of
// the order of the window.
func TestQueueHoldsTimersNotPackets(t *testing.T) {
	for _, window := range []int{32, 2048, 8192} {
		d := newBulkDrive(window, 1)
		peak, start := 0, d.received()
		for d.received()-start < 2*window {
			if !d.loop.Step() {
				t.Fatalf("w%d: the flow stalled", window)
			}
			peak = max(peak, d.loop.Queued())
		}
		if st := d.conn.Stats(); st.Retransmits != 0 || st.RTOs != 0 {
			t.Fatalf("w%d: ideal channel saw %d retransmits, %d RTOs", window, st.Retransmits, st.RTOs)
		}
		t.Logf("w%d: peak queue occupancy %d", window, peak)
		if peak > 32 {
			t.Errorf("w%d: the event queue reached %d entries, want <= 32 at every depth", window, peak)
		}
	}

	// Nor the packets a delayed flow has on hold (Config.RxDelay): 64
	// flows held 20–52 ms one way and 30 ms the other keep most of their
	// windows on hold, each end's share in that connection's own lane. The
	// queue is a few entries per flow — lane heads, RTO, delayed ack —
	// whether the flows hold a thousand packets between them or sixteen
	// times that; with a timer per held packet it held them all.
	const flows = 64
	for _, window := range []int{16, 256} {
		loop := sim.NewLoop(1)
		ch := channel.New(loop, channel.Config{
			Props:      channel.Properties{Name: "ideal", BaseRTT: 10 * time.Millisecond, Bandwidth: 10e9},
			DownTrace:  trace.Constant("ideal", 10*time.Millisecond, 10e9),
			QueueBytes: 64 << 20,
		})
		g := channel.NewGroup(ch)
		client, server := NewEndpoint(loop, g, channel.A), NewEndpoint(loop, g, channel.B)
		var conns []*Conn
		server.Listen(func() Config {
			return Config{CC: fixedWindow{64 * cc.MSS}, Steer: steering.NewSingle(ch), RxDelay: 30 * time.Millisecond}
		}, func(c *Conn) { conns = append(conns, c) })
		for i := 0; i < flows; i++ {
			c := client.Dial(Config{CC: fixedWindow{window * cc.MSS}, Steer: steering.NewSingle(ch),
				RxDelay: 20*time.Millisecond + time.Duration(i)*time.Millisecond/2})
			c.SendMessage(c.NewStream(), 0, 1<<40, nil)
			conns = append(conns, c)
		}
		loop.RunUntil(time.Second)
		if len(conns) != 2*flows {
			t.Fatalf("%d connections, want %d and their peers", len(conns), flows)
		}
		peak, peakHeld := 0, 0
		for n := 0; loop.Now() < 1200*time.Millisecond; n++ {
			if !loop.Step() {
				t.Fatalf("%d flows of w%d stalled", flows, window)
			}
			peak = max(peak, loop.Queued())
			if n%64 == 0 {
				held := 0
				for _, c := range conns {
					held += c.rx.q.len()
				}
				peakHeld = max(peakHeld, held)
			}
		}
		t.Logf("%d delayed flows of w%d: peak queue occupancy %d with up to %d packets on hold", flows, window, peak, peakHeld)
		if peakHeld < flows*window/2 {
			t.Errorf("%d flows of w%d held at most %d packets, want at least half their windows", flows, window, peakHeld)
		}
		if peak > 8*flows {
			t.Errorf("%d flows of w%d: the event queue reached %d entries, want <= %d however many are held", flows, window, peak, 8*flows)
		}
	}
}

// After many windows' worth of packets through a saturated flow, the
// stack holds no more memory than after the first few: payload boxes
// circulate with the pooled packets (either kind's total is bounded by
// the packets in circulation, which the window bounds), the link rings
// wrap instead of appending, and the in-flight set slides within its
// backing array. Before the boxes moved to the group's pool and the
// rings wrapped, this flow grew by 70 bytes and 1.5 objects per packet sent.
//
// Nor does the steady flow allocate garbage, whichever subflow set it
// runs over: acks are grouped per subflow in the subflows' own scratch.
// The separate multipath ack path this replaces built two maps per ack.
func TestBulkFlowMemoryBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are inflated under -race")
	}
	for _, shape := range []struct {
		name     string
		channels int
	}{{"single-path", 1}, {"multipath", 2}} {
		t.Run(shape.name, func(t *testing.T) {
			const window = 256
			d := newBulkDrive(window, shape.channels)
			live := func() (bytes, objects, mallocs uint64) {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc, ms.HeapObjects, ms.Mallocs
			}
			d.run(20 * window)
			bytes0, objs0, mallocs0 := live()
			sent := d.run(400 * window)
			bytes1, objs1, mallocs1 := live()
			if st := d.conn.Stats(); st.Retransmits != 0 || st.RTOs != 0 {
				t.Fatalf("ideal channel saw %d retransmits, %d RTOs", st.Retransmits, st.RTOs)
			}
			// Slack for the runtime's own bookkeeping; the leak this guards
			// against was megabytes and more than one object per packet.
			if grown := int64(bytes1) - int64(bytes0); grown > 64<<10 {
				t.Errorf("live heap grew %d bytes over %d packets, want a bounded footprint", grown, sent)
			}
			if grown := int64(objs1) - int64(objs0); grown > 256 {
				t.Errorf("live heap grew %d objects over %d packets, want a bounded footprint", grown, sent)
			}
			// A warm flow's arrays have all reached the window, so the
			// slack is the runtime's own; a path that allocates per ack
			// costs one per packet or more.
			if n := mallocs1 - mallocs0; n > 16 {
				t.Errorf("%d allocations over %d packets, want a steady flow to allocate nothing", n, sent)
			}
			runtime.KeepAlive(d)
		})
	}
}

// coldFlight builds a bulk drive of window packets per channel from
// nothing — endpoints, arenas, packet pool, link rings all cold — and
// runs it for 20 windows; the heap objects that cost, per window slot,
// are what a flight growing into a cold arena pays per packet it holds.
func coldFlight(window, channels int) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	d := newBulkDrive(window, channels)
	d.run(20 * window)
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(d)
	return float64(ms.Mallocs-mallocs0) / float64(window)
}

// A cold flight costs a few heap objects per packet it holds: the packet,
// its payload box, and the chunk that is also its tracking record, with
// the channels that carried it inline. With a separate tracking record
// and three one-element slices of channel names, IDs and send indexes
// hanging off it, the same flights cost 8.4 objects per slot on one
// channel and 18.8 on two.
func TestColdFlightAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, shape := range []struct {
		name     string
		channels int
		bound    float64
	}{{"single-path", 1, 5}, {"multipath", 2, 12}} {
		got := coldFlight(1024, shape.channels)
		t.Logf("%s: %.2f allocations per window slot", shape.name, got)
		if got > shape.bound {
			t.Errorf("%s: a cold 1024-packet flight allocated %.2f objects per slot, want <= %.0f",
				shape.name, got, shape.bound)
		}
	}
}

// BenchmarkColdFlight is TestColdFlightAllocs's drive, a fresh one per
// op: what a flow that grows its flight into a cold arena costs.
func BenchmarkColdFlight(b *testing.B) {
	for _, shape := range []struct {
		name     string
		channels int
	}{{"single-path", 1}, {"multipath", 2}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newBulkDrive(1024, shape.channels).run(20 * 1024)
			}
		})
	}
}

// Nor does a lossy flow, once warm: what the network discards — packets
// lost in flight, packets a full queue refuses at entry, the original of
// a replicated packet among them — goes back to the group's pool with
// its payload box and is the next packet sent. Without that, every loss
// cost a packet and a box. What remains is the receiver's range set,
// which grows by one range per lost sequence number (amortised, a few
// allocations in ten thousand packets).
func TestLossyFlowAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, shape := range lossyShapes {
		t.Run(shape.name, func(t *testing.T) {
			d := newLossyDrive(shape.replicate)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs0, losses0 := ms.Mallocs, d.losses()
			sent := d.run(10_000)
			runtime.ReadMemStats(&ms)
			n, losses := ms.Mallocs-mallocs0, d.losses()-losses0
			t.Logf("%d allocations over %d packets and %d losses", n, sent, losses)
			if losses < sent/50 {
				t.Fatalf("%d losses over %d packets: the drive is not lossy", losses, sent)
			}
			if n > 16 {
				t.Errorf("%d allocations over %d packets and %d losses, want a lossy flow to allocate nothing", n, sent, losses)
			}
			CheckLedger(d.client, d.server)
		})
	}
}

// BenchmarkLossyFlow reports what a lossy flow costs per delivered
// packet once warm, allocations included (0 expected).
func BenchmarkLossyFlow(b *testing.B) {
	for _, shape := range lossyShapes {
		b.Run(shape.name, func(b *testing.B) {
			d := newLossyDrive(shape.replicate)
			b.ReportAllocs()
			b.ResetTimer()
			d.run(b.N)
		})
	}
}
