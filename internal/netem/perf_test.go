package netem

import (
	"slices"
	"testing"
	"time"

	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/trace"
)

// Allocation budget: a full enqueue → serialize → propagate → deliver
// round trip allocates nothing in steady state. The send and in-flight
// rings reuse their backing arrays, the three link callbacks are built
// once at construction, and the loop recycles its event slots.
func TestRoundTripAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	loop := sim.NewLoop(1)
	delivered := 0
	l := New(loop, Config{Name: "l", Trace: trace.Constant("c", 10*time.Millisecond, 8e6)},
		func(*packet.Packet) { delivered++ })
	p := &packet.Packet{ID: 1, Size: 1000}
	for i := 0; i < 64; i++ { // warm up rings and loop arrays
		l.Send(p)
		loop.Run()
	}
	if avg := testing.AllocsPerRun(200, func() {
		if !l.Send(p) {
			t.Fatal("Send rejected")
		}
		loop.Run()
	}); avg != 0 {
		t.Errorf("round trip allocates %v/op in steady state, want 0", avg)
	}
	if delivered < 264 {
		t.Fatalf("delivered %d packets, want >= 264", delivered)
	}
}

// The same budget with a backlogged queue: head-of-line churn on the
// rings (append at the tail, advance the head) must not reallocate.
func TestSaturatedQueueAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	loop := sim.NewLoop(1)
	l := New(loop, Config{
		Name:       "l",
		Trace:      trace.Constant("c", 10*time.Millisecond, 1e9),
		QueueBytes: 64 << 20,
	}, func(*packet.Packet) {})
	p := &packet.Packet{ID: 1, Size: 1500}
	for i := 0; i < 256; i++ { // warm up with a standing backlog
		l.Send(p)
		loop.Step()
	}
	if avg := testing.AllocsPerRun(200, func() {
		l.Send(p)
		loop.Step()
	}); avg != 0 {
		t.Errorf("saturated send+step allocates %v/op in steady state, want 0", avg)
	}
	loop.Run()
}

func BenchmarkRoundTrip(b *testing.B) {
	loop := sim.NewLoop(1)
	l := New(loop, Config{Name: "l", Trace: trace.Constant("c", 10*time.Millisecond, 8e6)},
		func(*packet.Packet) {})
	p := &packet.Packet{ID: 1, Size: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(p)
		loop.Run()
	}
}

// BenchmarkLaneArrivals is a link at a standing 256-packet in-flight
// depth — one bulk flow's window over the eMBB pipe: each op offers a
// packet and runs the two events it costs, the end of a serialization
// and an arrival. The arrivals wait in the link's lane, so the loop's
// queue holds two entries however deep the pipe is.
func BenchmarkLaneArrivals(b *testing.B) {
	loop := sim.NewLoop(1)
	// 12 us per 1500-byte packet, 3.072 ms one way: 256 in propagation.
	l := New(loop, Config{
		Name:       "l",
		Trace:      trace.Constant("c", 6144*time.Microsecond, 1e9),
		QueueBytes: 64 << 20,
	}, func(*packet.Packet) {})
	pkts := make([]packet.Packet, 1024)
	for i := range pkts {
		pkts[i] = packet.Packet{ID: uint64(i), Size: 1500}
	}
	for k := 0; k < 256; k++ { // fill the pipe
		l.Send(&pkts[k])
		loop.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(&pkts[(256+i)%len(pkts)])
		loop.Step()
		loop.Step()
	}
	b.StopTimer()
	if n := l.inflight.len(); n < 200 || n > 300 {
		b.Fatalf("%d packets in flight, want a standing ~256", n)
	}
	loop.Run()
}

// BenchmarkLinkTraced is a backlogged link over five minutes of
// lowband-driving conditions, asked what a sender asks per packet: the
// queue delay (steering), a send, and the two events it costs. The
// conditions change every 100 ms and the link reads them four times per
// packet, from its cached segment.
func BenchmarkLinkTraced(b *testing.B) {
	loop := sim.NewLoop(1)
	l := New(loop, Config{
		Name:       "l",
		Trace:      trace.LowbandDriving(1, 5*time.Minute),
		QueueBytes: 64 << 20,
	}, func(*packet.Packet) {})
	p := &packet.Packet{ID: 1, Size: 1500}
	for i := 0; i < 256; i++ { // a standing backlog
		l.Send(p)
	}
	var delay time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delay += l.QueueDelay()
		l.Send(p)
		loop.Step()
		loop.Step()
	}
	b.StopTimer()
	if delay == 0 {
		b.Fatal("a backlogged link reported no queue delay")
	}
	loop.Run()
}

// The link's cached trace segment is the trace's, boundary after
// boundary and around the wrap: packets sent mid-segment are serialized
// at that segment's rate and delayed by its RTT, one sent into an outage
// leaves when it ends, and the outage scans (kick's, QueueDelay's) look
// ahead without moving the cache. With checking on, every read of the
// cache is also held to Trace.At (netem/trace-segment).
func TestSegmentCacheFollowsTrace(t *testing.T) {
	const ms = time.Millisecond
	tr := &trace.Trace{Name: "steps", Samples: []trace.Sample{
		{At: 0, RTT: 10 * ms, Rate: 8e6}, // 1 ms per 1000-byte packet
		{At: 100 * ms, RTT: 20 * ms, Rate: 16e6},
		{At: 200 * ms, RTT: 40 * ms, Rate: 0},
		{At: 300 * ms, RTT: 30 * ms, Rate: 8e6},
	}} // repeats every 400 ms
	loop := sim.NewLoop(1)
	var arrivals []time.Duration
	l := New(loop, Config{Name: "l", Trace: tr}, func(*packet.Packet) { arrivals = append(arrivals, loop.Now()) })
	var segments []time.Duration // the cached sample's offset after each send
	for _, at := range []time.Duration{50 * ms, 150 * ms, 250 * ms, 350 * ms, 450 * ms, 550 * ms, 1250 * ms} {
		loop.At(at, func() {
			l.Send(&packet.Packet{ID: uint64(at), Size: 1000})
			delay := l.QueueDelay()
			now := loop.Now()
			if want, until := tr.Segment(now); l.seg != want || l.segUntil != until {
				t.Errorf("at %v the link holds %+v until %v, the trace says %+v until %v", now, l.seg, l.segUntil, want, until)
			}
			// 1000 bytes queued: 1 ms at 8 Mbps, half that at 16; in the
			// outage, the 50 ms left of it first.
			if want := map[time.Duration]time.Duration{0: ms, 100 * ms: ms / 2, 200 * ms: 51 * ms, 300 * ms: ms}[l.seg.At]; delay != want {
				t.Errorf("at %v (segment %v) QueueDelay = %v, want %v", now, l.seg.At, delay, want)
			}
			segments = append(segments, l.seg.At)
		})
	}
	loop.Run()
	if want := []time.Duration{0, 100 * ms, 200 * ms, 300 * ms, 0, 100 * ms, 0}; !slices.Equal(segments, want) {
		t.Errorf("cached segments at the sends: %v, want %v", segments, want)
	}
	// Send time + serialization + RTT/2, each of the segment in force;
	// the third waits for the outage to end at 300 ms.
	want := []time.Duration{56 * ms, 160*ms + ms/2, 316 * ms, 366 * ms, 456 * ms, 560*ms + ms/2, 1256 * ms}
	if !slices.Equal(arrivals, want) {
		t.Errorf("arrivals %v, want %v", arrivals, want)
	}
}

// The arrival lane holds one occurrence per distinct arrival timestamp
// in the in-flight ring — packets whose clamped arrivals coincide share
// one — and the loop's queue holds the lane's head, never the packets:
// checked after every event of a run whose delay collapses (clamped
// bursts) and recovers, the O(ring) form of the check deliver makes in
// O(1).
func TestArrivalLaneTracksRing(t *testing.T) {
	loop := sim.NewLoop(1)
	tr := &trace.Trace{Name: "d", Samples: []trace.Sample{
		{At: 0, RTT: 40 * time.Millisecond, Rate: 80e6},
		{At: 3 * time.Millisecond, RTT: 2 * time.Millisecond, Rate: 80e6},
		{At: 9 * time.Millisecond, RTT: 30 * time.Millisecond, Rate: 80e6},
		{At: 15 * time.Millisecond, RTT: 10 * time.Millisecond, Rate: 80e6},
	}}
	delivered := 0
	l := New(loop, Config{Name: "l", Trace: tr}, func(*packet.Packet) { delivered++ })
	const pkts = 200 // 100 us each: 20 ms of transmission
	for i := 0; i < pkts; i++ {
		l.Send(&packet.Packet{ID: uint64(i), Size: 1000})
	}
	peakShared := 0
	for loop.Step() {
		ring := &l.inflight
		at := func(i int) time.Duration { return ring.buf[(ring.head+i)&(len(ring.buf)-1)].at }
		distinct := 0
		for i := 0; i < ring.len(); i++ {
			if i == 0 || at(i) != at(i-1) {
				distinct++
			}
		}
		if got := l.arrivals.Len(); got != distinct {
			t.Fatalf("at %v: lane holds %d occurrences, ring has %d distinct arrival times over %d packets",
				loop.Now(), got, distinct, l.inflight.len())
		}
		peakShared = max(peakShared, l.inflight.len()-distinct)
		// The serialization in progress and the next arrival.
		if n := loop.Queued(); n > 2 {
			t.Fatalf("at %v: %d entries queued with %d packets in flight, want <= 2", loop.Now(), n, l.inflight.len())
		}
	}
	if delivered != pkts {
		t.Fatalf("delivered %d of %d packets", delivered, pkts)
	}
	if peakShared == 0 {
		t.Fatal("no two packets ever shared an arrival time: the delay collapse did not clamp")
	}
}

// A saturated link never drains, so its rings never get a quiet moment
// to rewind: their memory must be bounded by the backlog all the same.
// Capacity only ever doubles on a push that finds every slot occupied,
// so after any number of packets it is below twice the peak occupancy.
func TestRingsBoundedUnderSaturation(t *testing.T) {
	loop := sim.NewLoop(1)
	l := New(loop, Config{
		Name:       "l",
		Trace:      trace.Constant("c", 10*time.Millisecond, 1e9),
		QueueBytes: 64 << 20,
	}, func(*packet.Packet) {})
	const backlog = 1024
	pkts := make([]packet.Packet, 4096) // more than the link ever holds at once
	for i := range pkts {
		pkts[i] = packet.Packet{ID: uint64(i), Size: 1500}
	}
	peakQueue, peakInflight := 0, 0
	for k := 0; k < 200*backlog; k++ {
		l.Send(&pkts[k%len(pkts)])
		if k >= backlog {
			// One packet in, two events out: until the first arrival, 5 ms
			// in, both are serializations; from then on one is an arrival,
			// and the backlog holds (~600 queued, ~400 in propagation).
			loop.Step()
			loop.Step()
		}
		peakQueue = max(peakQueue, l.queue.len())
		peakInflight = max(peakInflight, l.inflight.len())
	}
	if l.queue.len() < backlog/4 || l.stats.DroppedQueue > 0 {
		t.Fatalf("link not saturated: %d queued, %d tail drops", l.queue.len(), l.stats.DroppedQueue)
	}
	if c := len(l.queue.buf); c > 2*peakQueue {
		t.Errorf("send ring holds %d slots for a peak of %d packets, want <= 2x", c, peakQueue)
	}
	if c := len(l.inflight.buf); c > 2*peakInflight {
		t.Errorf("in-flight ring holds %d slots for a peak of %d packets, want <= 2x", c, peakInflight)
	}
	loop.Run()
}

// FIFO order survives growth from a wrapped state, and popped slots are
// zeroed.
func TestRingWrapAndGrow(t *testing.T) {
	var r ring[*int]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			v := next
			next++
			r.push(&v)
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := *r.front(); got != want {
				t.Fatalf("front = %d, want %d", got, want)
			}
			if got := *r.pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	push(8)  // full at the initial capacity
	pop(5)   // head mid-buffer
	push(5)  // wrapped, full again
	push(20) // grows twice from the wrapped state
	pop(10)
	push(3)
	pop(r.len())
	if r.len() != 0 || want != next {
		t.Fatalf("ring holds %d after draining; popped %d of %d", r.len(), want, next)
	}
	for i, p := range r.buf {
		if p != nil {
			t.Errorf("slot %d still holds a popped element", i)
		}
	}
}

// lossyDrops sends 200 packets through a 10 %-loss link on a seed-42
// loop and returns the indices of the ones that never arrive.
func lossyDrops() (drops []int) {
	loop := sim.NewLoop(42)
	arrived := make([]bool, 200)
	l := New(loop, Config{Name: "embb", Salt: "up", Trace: trace.Constant("c", 10*time.Millisecond, 100e6), LossProb: 0.1},
		func(p *packet.Packet) { arrived[p.ID] = true })
	for i := range arrived {
		l.Send(&packet.Packet{ID: uint64(i), Size: 1000})
	}
	loop.Run()
	for i, ok := range arrived {
		if !ok {
			drops = append(drops, i)
		}
	}
	return drops
}

// goldenDrops is what lossyDrops returned when every link seeded its
// loss stream at construction (generated at the commit before seeding
// became lazy).
var goldenDrops = []int{28, 29, 31, 35, 66, 73, 82, 83, 99, 112, 113, 128, 135, 147, 151, 157, 160, 167, 192, 194, 198}

// Random streams are seeded on their first draw, from the seed they
// were always given: the draws are the same, and a stream nothing
// draws from costs nothing.
func TestLazyRNGStreamsIdentical(t *testing.T) {
	if got := lossyDrops(); !slices.Equal(got, goldenDrops) {
		t.Errorf("a 10%% loss link dropped packets\n%v, want\n%v", got, goldenDrops)
	}
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	// The Link, its two bound methods and its outage closure; the seeded
	// generator was six objects and 5 KB more.
	loop := sim.NewLoop(7)
	cfg := Config{Name: "embb", Trace: trace.Constant("c", 10*time.Millisecond, 100e6)}
	if got := testing.AllocsPerRun(100, func() { New(loop, cfg, func(*packet.Packet) {}) }); got > 4 {
		t.Errorf("netem.New of a loss-free link allocates %.0f objects, want <= 4 (no generator)", got)
	}
}
