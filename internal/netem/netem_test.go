package netem

import (
	"testing"
	"time"

	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/trace"
)

// mkpkt returns a data packet with the given id and total size.
func mkpkt(id uint64, size int) *packet.Packet {
	return &packet.Packet{ID: id, Size: size}
}

func collectSink(got *[]*packet.Packet, times *[]time.Duration, loop *sim.Loop) Sink {
	return func(p *packet.Packet) {
		*got = append(*got, p)
		*times = append(*times, loop.Now())
	}
}

func TestSingleDeliveryTiming(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []*packet.Packet
	var at []time.Duration
	// 8 Mbps, 10 ms RTT → 1000-byte packet: 1 ms serialize + 5 ms prop.
	l := New(loop, Config{Name: "l", Trace: trace.Constant("c", 10*time.Millisecond, 8e6)},
		collectSink(&got, &at, loop))
	if !l.Send(mkpkt(1, 1000)) {
		t.Fatal("Send rejected")
	}
	loop.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if want := 6 * time.Millisecond; at[0] != want {
		t.Fatalf("delivered at %v, want %v", at[0], want)
	}
	if got[0].Channel != "l" {
		t.Fatalf("packet channel stamp = %q, want l", got[0].Channel)
	}
}

func TestSerializationQueuesBackToBack(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{Name: "l", Trace: trace.Constant("c", 10*time.Millisecond, 8e6)},
		collectSink(&got, &at, loop))
	// Two 1000-byte packets: second finishes serializing at 2 ms,
	// arrives at 7 ms.
	l.Send(mkpkt(1, 1000))
	l.Send(mkpkt(2, 1000))
	loop.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	if at[0] != 6*time.Millisecond || at[1] != 7*time.Millisecond {
		t.Fatalf("arrivals %v, want [6ms 7ms]", at)
	}
	if got[0].ID != 1 || got[1].ID != 2 {
		t.Fatal("FIFO order violated")
	}
}

func TestDropTailOverflow(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{
		Name:       "l",
		Trace:      trace.Constant("c", 10*time.Millisecond, 8e6),
		QueueBytes: 2500,
	}, collectSink(&got, &at, loop))
	ok1 := l.Send(mkpkt(1, 1000))
	ok2 := l.Send(mkpkt(2, 1000))
	ok3 := l.Send(mkpkt(3, 1000)) // exceeds 2500B cap
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("Send results %v %v %v, want true true false", ok1, ok2, ok3)
	}
	loop.Run()
	st := l.Stats()
	if st.DroppedQueue != 1 || st.Delivered != 2 || st.Sent != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueDrainReopensCapacity(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{
		Name:       "l",
		Trace:      trace.Constant("c", 10*time.Millisecond, 8e6),
		QueueBytes: 1500,
	}, collectSink(&got, &at, loop))
	l.Send(mkpkt(1, 1000))
	loop.RunUntil(90 * time.Millisecond) // queue drained
	if !l.Send(mkpkt(2, 1000)) {
		t.Fatal("Send after drain should succeed")
	}
	loop.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
}

func TestRandomLoss(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{
		Name:     "l",
		Trace:    trace.Constant("c", time.Millisecond, 1e9),
		LossProb: 0.5,
	}, collectSink(&got, &at, loop))
	const n = 2000
	accepted := 0
	for i := 0; i < n; i++ {
		if l.Send(mkpkt(uint64(i), 100)) {
			accepted++
		}
	}
	loop.Run()
	st := l.Stats()
	if accepted != n {
		t.Fatalf("random loss must not reject at entry: accepted %d/%d", accepted, n)
	}
	if st.DroppedRandom == 0 {
		t.Fatal("expected random losses")
	}
	frac := float64(st.DroppedRandom) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("loss fraction %.3f far from 0.5", frac)
	}
	if st.Delivered+st.DroppedRandom != n {
		t.Fatalf("delivered %d + dropped %d != %d", st.Delivered, st.DroppedRandom, n)
	}
}

func TestOutageStallsThenDrains(t *testing.T) {
	loop := sim.NewLoop(1)
	// Outage for the first 100 ms, then 8 Mbps.
	tr := &trace.Trace{Name: "o", Samples: []trace.Sample{
		{At: 0, RTT: 10 * time.Millisecond, Rate: 0},
		{At: 100 * time.Millisecond, RTT: 10 * time.Millisecond, Rate: 8e6},
	}}
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{Name: "l", Trace: tr}, collectSink(&got, &at, loop))
	l.Send(mkpkt(1, 1000))
	loop.RunUntil(150 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1 after outage ends", len(got))
	}
	// Serialization can only start at 100 ms: 1 ms tx + 5 ms prop.
	if want := 106 * time.Millisecond; at[0] != want {
		t.Fatalf("arrival %v, want %v", at[0], want)
	}
}

func TestFIFOPreservedAcrossDelayDrop(t *testing.T) {
	loop := sim.NewLoop(1)
	// RTT collapses from 200 ms to 2 ms at t=1ms: the second packet
	// must not overtake the first.
	tr := &trace.Trace{Name: "d", Samples: []trace.Sample{
		{At: 0, RTT: 200 * time.Millisecond, Rate: 80e6},
		{At: 1 * time.Millisecond, RTT: 2 * time.Millisecond, Rate: 80e6},
	}}
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{Name: "l", Trace: tr}, collectSink(&got, &at, loop))
	l.Send(mkpkt(1, 1000))
	loop.RunUntil(1500 * time.Microsecond)
	l.Send(mkpkt(2, 1000))
	loop.Run()
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("order violated: %v", got)
	}
	if at[1] < at[0] {
		t.Fatalf("arrivals reordered: %v", at)
	}
}

func TestQueuedBytesTracksOccupancy(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{Name: "l", Trace: trace.Constant("c", 10*time.Millisecond, 8e6)},
		collectSink(&got, &at, loop))
	l.Send(mkpkt(1, 1000))
	l.Send(mkpkt(2, 500))
	if l.QueuedBytes() != 1500 {
		t.Fatalf("QueuedBytes = %d, want 1500", l.QueuedBytes())
	}
	loop.Run()
	if l.QueuedBytes() != 0 {
		t.Fatalf("QueuedBytes after drain = %d, want 0", l.QueuedBytes())
	}
}

func TestQueueDelayEstimate(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{Name: "l", Trace: trace.Constant("c", 10*time.Millisecond, 8e6)},
		collectSink(&got, &at, loop))
	if l.QueueDelay() != 0 {
		t.Fatalf("empty QueueDelay = %v, want 0", l.QueueDelay())
	}
	l.Send(mkpkt(1, 1000)) // 1 ms of serialization backlog
	if got, want := l.QueueDelay(), time.Millisecond; got != want {
		t.Fatalf("QueueDelay = %v, want %v", got, want)
	}
}

func TestQueueDelayDuringOutage(t *testing.T) {
	loop := sim.NewLoop(1)
	tr := &trace.Trace{Name: "o", Samples: []trace.Sample{
		{At: 0, RTT: 10 * time.Millisecond, Rate: 0},
		{At: 100 * time.Millisecond, RTT: 10 * time.Millisecond, Rate: 8e6},
	}}
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{Name: "l", Trace: tr}, collectSink(&got, &at, loop))
	l.Send(mkpkt(1, 1000))
	// 100 ms until capacity returns + 1 ms to serialize the backlog.
	if got, want := l.QueueDelay(), 101*time.Millisecond; got != want {
		t.Fatalf("QueueDelay = %v, want %v", got, want)
	}
}

func TestThroughputMatchesRate(t *testing.T) {
	loop := sim.NewLoop(1)
	var got []*packet.Packet
	var at []time.Duration
	l := New(loop, Config{
		Name:       "l",
		Trace:      trace.Constant("c", 10*time.Millisecond, 10e6),
		QueueBytes: 64 << 20,
	}, collectSink(&got, &at, loop))
	// Offer far more than 1 second of load, run for 1 second.
	for i := 0; i < 2000; i++ {
		l.Send(mkpkt(uint64(i), 1500))
	}
	loop.RunUntil(time.Second)
	gotBits := float64(len(got)) * 1500 * 8
	if gotBits < 9.5e6 || gotBits > 10.5e6 {
		t.Fatalf("delivered %.2f Mbit in 1s on a 10 Mbps link", gotBits/1e6)
	}
}

func TestNewPanics(t *testing.T) {
	loop := sim.NewLoop(1)
	sink := Sink(func(*packet.Packet) {})
	for name, fn := range map[string]func(){
		"nil trace": func() { New(loop, Config{Name: "x"}, sink) },
		"nil sink":  func() { New(loop, Config{Name: "x", Trace: trace.FixedEMBB()}, nil) },
		"bad loss":  func() { New(loop, Config{Name: "x", Trace: trace.FixedEMBB(), LossProb: 1.5}, sink) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		loop := sim.NewLoop(42)
		var got []*packet.Packet
		var at []time.Duration
		l := New(loop, Config{
			Name:     "l",
			Trace:    trace.LowbandDriving(3, 10*time.Second),
			LossProb: 0.01,
		}, collectSink(&got, &at, loop))
		for i := 0; i < 500; i++ {
			i := i
			loop.At(time.Duration(i)*5*time.Millisecond, func() {
				l.Send(mkpkt(uint64(i), 1200))
			})
		}
		loop.Run()
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d packets", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkLinkSaturated(b *testing.B) {
	loop := sim.NewLoop(1)
	n := 0
	l := New(loop, Config{
		Name:       "l",
		Trace:      trace.Constant("c", 10*time.Millisecond, 1e9),
		QueueBytes: 64 << 20,
	}, func(*packet.Packet) { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(mkpkt(uint64(i), 1500))
		loop.Step()
	}
	loop.Run()
}
