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
// (chunks, sent-info records, reassembly state) keep this near zero.
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
// in flight over an ideal channel (10 ms, 10 Gbps, no loss): every RTT
// the whole window is sent, delivered, acked, and refilled, so the
// flow stays saturated for as many packets as a test asks for.
type bulkDrive struct {
	loop     *sim.Loop
	conn     *Conn
	srv      *Conn
	deadline time.Duration
}

func newBulkDrive(window int) *bulkDrive {
	loop := sim.NewLoop(1)
	ch := channel.New(loop, channel.Config{
		Props:      channel.Properties{Name: "ideal", BaseRTT: 10 * time.Millisecond, Bandwidth: 10e9},
		DownTrace:  trace.Constant("ideal", 10*time.Millisecond, 10e9),
		QueueBytes: 64 << 20,
	})
	g := channel.NewGroup(ch)
	client, server := NewEndpoint(loop, g, channel.A), NewEndpoint(loop, g, channel.B)
	d := &bulkDrive{loop: loop}
	only := steering.NewSingle(ch)
	server.Listen(func() Config {
		return Config{CC: fixedWindow{64 * cc.MSS}, Steer: only}
	}, func(c *Conn) { d.srv = c })
	d.conn = client.Dial(Config{CC: fixedWindow{window * cc.MSS}, Steer: only})
	d.conn.SendMessage(d.conn.NewStream(), 0, 1<<40, nil)
	d.run(2 * window) // handshake, then fill the window and every free list
	return d
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
// flight of window packets, for exercising the ack path with nothing
// under or over it: each step sends two packets and applies the ack
// that retires the two oldest, exactly the sequence handleAck runs
// (resolve, settle, recycle, detect losses) minus the controller and
// the timers.
type ackDrive struct {
	c      *Conn
	ch     int
	ranges []seqRange
}

func newAckDrive(window int) *ackDrive {
	d := &ackDrive{c: &Conn{sched: newScheduler(), chanIDs: map[string]int{}}, ranges: make([]seqRange, 1)}
	d.ch = d.c.chanID("ideal")
	for i := 0; i < window; i++ {
		d.send()
	}
	for i := 0; i < 2*window; i++ { // drift the flight once around its backing array
		d.step()
	}
	return d
}

func (d *ackDrive) send() {
	c := d.c
	info := c.newSentInfo()
	c.nextSeq++
	c.sentIndex[d.ch]++
	info.seq, info.size, info.chunk = c.nextSeq, packet.MaxPayload, c.sched.newChunk()
	info.chIDs = append(info.chIDs, d.ch)
	info.chIdx = append(info.chIdx, c.sentIndex[d.ch])
	c.bytesInFlight += info.size
	c.appendSent(info)
}

func (d *ackDrive) step() {
	c := d.c
	d.send()
	d.send()
	d.ranges[0] = seqRange{1, c.sentOrder[1].seq} // cumulative, as a loss-free receiver acks
	_, newest := c.ackRanges(d.ranges)
	c.largestAcked = newest.seq
	c.recycleAcked()
	c.detectLosses(0)
}

// BenchmarkAckPath reports the ack path's cost per acknowledged packet
// at three flight depths; TestAckPathWindowIndependent holds the
// deepest within 1.5× of the shallowest.
func BenchmarkAckPath(b *testing.B) {
	for _, window := range []int{32, 2048, 8192} {
		b.Run(fmt.Sprintf("w%d", window), func(b *testing.B) {
			d := newAckDrive(window)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 {
				d.step()
			}
			if got := len(d.c.sentOrder); got != window {
				b.Fatalf("flight is %d packets, want %d", got, window)
			}
		})
	}
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
	timeSteps := func(d *ackDrive) time.Duration {
		start := time.Now()
		for i := 0; i < steps; i++ {
			d.step()
		}
		return time.Since(start)
	}
	shallow, deep := newAckDrive(32), newAckDrive(8192)
	var ratios []float64
	for try := 0; try < 7; try++ {
		ratio := float64(timeSteps(deep)) / float64(timeSteps(shallow))
		if ratio <= 1.5 {
			return
		}
		ratios = append(ratios, ratio)
	}
	t.Errorf("ack path at w8192 costs %.2f× its w32 cost per packet in every try, want <= 1.5×", ratios)
}

// After many windows' worth of packets through a saturated flow, the
// stack holds no more memory than after the first few: payload boxes
// circulate with the pooled packets (either kind's total is bounded by
// the packets in circulation, which the window bounds), the link rings
// wrap instead of appending, and the in-flight set slides within its
// backing array. Before the boxes moved to the group's pool and the
// rings wrapped, this flow grew by 70 bytes and 1.5 objects per packet sent.
func TestBulkFlowMemoryBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are inflated under -race")
	}
	const window = 256
	d := newBulkDrive(window)
	live := func() (bytes, objects uint64) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.HeapObjects
	}
	d.run(20 * window)
	bytes0, objs0 := live()
	sent := d.run(400 * window)
	bytes1, objs1 := live()
	if st := d.conn.Stats(); st.Retransmits != 0 || st.RTOs != 0 {
		t.Fatalf("ideal channel saw %d retransmits, %d RTOs", st.Retransmits, st.RTOs)
	}
	// Slack for the runtime's own bookkeeping; the leak this guards
	// against was megabytes and more than one object per packet. The
	// byte budget is the heap scheduler's: the timing wheel (-tags
	// sim_wheel) sizes each of its 1024 buckets as events first crowd
	// it, which takes minutes of virtual time to settle.
	if grown := int64(bytes1) - int64(bytes0); grown > 64<<10 && sim.DefaultScheduler == sim.Heap {
		t.Errorf("live heap grew %d bytes over %d packets, want a bounded footprint", grown, sent)
	}
	if grown := int64(objs1) - int64(objs0); grown > 256 {
		t.Errorf("live heap grew %d objects over %d packets, want a bounded footprint", grown, sent)
	}
	runtime.KeepAlive(d)
}
