package fault

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/spec"
	"hvc/internal/telemetry"
	"hvc/internal/trace"
)

// world builds a loop plus a one-channel group (20 ms RTT, 8 Mbps both
// ways: a 1000-byte packet serializes in 1 ms and arrives 11 ms after
// an idle send) with delivery times collected per side.
func world(seed int64) (*sim.Loop, *channel.Group, *[]time.Duration) {
	loop := sim.NewLoop(seed)
	ch := channel.New(loop, channel.Config{
		Props:     channel.Properties{Name: "embb", BaseRTT: 20 * time.Millisecond, Bandwidth: 8e6},
		DownTrace: trace.Constant("c", 20*time.Millisecond, 8e6),
	})
	var atB []time.Duration
	ch.SetSink(channel.B, func(p *packet.Packet) { atB = append(atB, loop.Now()) })
	ch.SetSink(channel.A, func(p *packet.Packet) {})
	return loop, channel.NewGroup(ch), &atB
}

// sendEvery schedules one 1000-byte packet from A every interval until
// end, starting at interval.
func sendEvery(loop *sim.Loop, g *channel.Group, interval, end time.Duration) {
	ch := g.All()[0]
	var id uint64
	for at := interval; at <= end; at += interval {
		id++
		p := &packet.Packet{ID: id, Size: 1000}
		loop.At(at, func() { ch.Send(channel.A, p) })
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"none",
		"outage:ch=embb,at=5s,dur=2s",
		"outage:ch=embb,at=5s,dur=2s,every=8s,count=3",
		"outage:ch=embb,at=1s,dur=1s;outage:ch=urllc,at=1s,dur=1s",
		"burst:ch=embb,at=0s,dur=30s,pgb=0.02,pbg=0.3,loss=0.9,lossgood=0.001",
		"slump:ch=embb,at=2s,dur=4s,factor=0.25",
		"spike:ch=urllc,at=1.5s,dur=500ms,delay=80ms",
		"outage:ch=embb,at=5s,dur=2s;burst:ch=embb,at=10s,dur=5s,pgb=0.01,pbg=0.25,loss=1,lossgood=0",
	} {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if err := spec.RoundTrip(sp, ParseSpec); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
}

func TestParseSpecEmpty(t *testing.T) {
	for _, s := range []string{"", "none", "  none  "} {
		spec, err := ParseSpec(s)
		if err != nil || !spec.Empty() {
			t.Fatalf("ParseSpec(%q) = %+v, %v; want empty", s, spec, err)
		}
		if spec.String() != "none" {
			t.Fatalf("empty spec renders %q, want none", spec.String())
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("burst:ch=x,at=0s,dur=1s")
	if err != nil {
		t.Fatal(err)
	}
	ev := spec.Events[0]
	if ev.PGB != 0.01 || ev.PBG != 0.25 || ev.LossBad != 1 || ev.LossGood != 0 {
		t.Fatalf("burst defaults = %+v", ev)
	}
	spec, err = ParseSpec("slump:ch=x,at=0s,dur=1s")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Events[0].Factor != 0.1 {
		t.Fatalf("slump default factor = %v", spec.Events[0].Factor)
	}
	spec, err = ParseSpec("spike:ch=x,at=0s,dur=1s")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Events[0].Delay != 100*time.Millisecond {
		t.Fatalf("spike default delay = %v", spec.Events[0].Delay)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for name, s := range map[string]string{
		"unknown kind":        "meteor:ch=embb,at=0s,dur=1s",
		"no colon":            "outage",
		"no fields":           "outage:",
		"bad field":           "outage:ch",
		"empty value":         "outage:ch=,at=0s,dur=1s",
		"unknown key":         "outage:ch=embb,at=0s,dur=1s,zap=1",
		"duplicate key":       "outage:ch=embb,ch=embb,at=0s,dur=1s",
		"missing ch":          "outage:at=0s,dur=1s",
		"missing dur":         "outage:ch=embb,at=0s",
		"negative at":         "outage:ch=embb,at=-1s,dur=1s",
		"zero dur":            "outage:ch=embb,at=0s,dur=0s",
		"every without count": "outage:ch=embb,at=0s,dur=1s,every=5s",
		"every below dur":     "outage:ch=embb,at=0s,dur=2s,every=1s,count=3",
		"count zero":          "outage:ch=embb,at=0s,dur=1s,every=5s,count=0",
		"count huge":          "outage:ch=embb,at=0s,dur=1s,every=5s,count=99999999",
		"overlap same kind":   "outage:ch=embb,at=0s,dur=5s;outage:ch=embb,at=2s,dur=1s",
		"prob above one":      "burst:ch=embb,at=0s,dur=1s,pgb=1.5",
		"factor zero":         "slump:ch=embb,at=0s,dur=1s,factor=0",
		"burst key on outage": "outage:ch=embb,at=0s,dur=1s,pgb=0.1",
		"slump key on burst":  "burst:ch=embb,at=0s,dur=1s,factor=0.5",
		"spike key on slump":  "slump:ch=embb,at=0s,dur=1s,delay=10ms",
		"past horizon":        "outage:ch=embb,at=999h,dur=2h",
		"prob NaN":            "burst:ch=embb,at=0s,dur=1s,pgb=NaN",
		"factor NaN":          "slump:ch=embb,at=0s,dur=1s,factor=NaN",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("%s: ParseSpec(%q) accepted, want error", name, s)
		}
	}
}

func TestOverlapAllowedAcrossKindsAndChannels(t *testing.T) {
	for _, s := range []string{
		"outage:ch=embb,at=0s,dur=5s;slump:ch=embb,at=2s,dur=1s",
		"outage:ch=embb,at=0s,dur=5s;outage:ch=urllc,at=2s,dur=1s",
	} {
		if _, err := ParseSpec(s); err != nil {
			t.Errorf("ParseSpec(%q): %v, want ok (different kind/channel may overlap)", s, err)
		}
	}
}

func TestDefaultSchedule(t *testing.T) {
	spec := Default("embb", 8*time.Second)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	want := "outage:ch=embb,at=2s,dur=1s;outage:ch=embb,at=5s,dur=1s"
	if spec.String() != want {
		t.Fatalf("Default = %q, want %q", spec.String(), want)
	}
	// The canonical default must survive its own grammar.
	if _, err := ParseSpec(spec.String()); err != nil {
		t.Fatal(err)
	}
}

func TestInjectUnknownChannel(t *testing.T) {
	loop, g, _ := world(1)
	spec, err := ParseSpec("outage:ch=nosuch,at=1s,dur=1s")
	if err != nil {
		t.Fatal(err)
	}
	if err := Inject(loop, g, spec, nil); err == nil {
		t.Fatal("Inject accepted a scenario naming an unknown channel")
	}
}

func TestInjectOutageBlocksAndResumes(t *testing.T) {
	loop, g, atB := world(1)
	spec, err := ParseSpec("outage:ch=embb,at=50ms,dur=100ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := Inject(loop, g, spec, nil); err != nil {
		t.Fatal(err)
	}
	ch := g.All()[0]
	loop.At(40*time.Millisecond, func() {
		if ch.Down() {
			t.Error("channel down before the window")
		}
	})
	loop.At(60*time.Millisecond, func() {
		if !ch.Down() {
			t.Error("channel up inside the window")
		}
		if ch.QueueDelay(channel.A) < time.Hour {
			t.Error("QueueDelay should advertise a dead channel")
		}
	})
	loop.At(160*time.Millisecond, func() {
		if ch.Down() {
			t.Error("channel still down after the window")
		}
	})
	sendEvery(loop, g, 10*time.Millisecond, 300*time.Millisecond)
	loop.Run()

	// Packets sent at 10..40 ms arrive normally (11 ms after send);
	// nothing arrives inside (61 ms, 150 ms]; the backlog sent during
	// the outage (50..140 ms, queued) drains right after 150 ms.
	if len(*atB) != 30 {
		t.Fatalf("delivered %d packets, want all 30", len(*atB))
	}
	gapStart := 51*time.Millisecond + 11*time.Millisecond // last pre-outage arrival upper bound
	for _, at := range *atB {
		if at > gapStart && at <= 150*time.Millisecond {
			t.Fatalf("arrival at %v inside the outage window", at)
		}
	}
	var resumed bool
	for _, at := range *atB {
		if at > 150*time.Millisecond && at < 170*time.Millisecond {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("backlog did not drain promptly after the outage")
	}
}

func TestInjectRepeatedOutages(t *testing.T) {
	loop, g, _ := world(1)
	spec, err := ParseSpec("outage:ch=embb,at=10ms,dur=10ms,every=50ms,count=3")
	if err != nil {
		t.Fatal(err)
	}
	if err := Inject(loop, g, spec, nil); err != nil {
		t.Fatal(err)
	}
	ch := g.All()[0]
	downAt := func(at time.Duration, want bool) {
		loop.At(at, func() {
			if ch.Down() != want {
				t.Errorf("Down() at %v = %v, want %v", at, ch.Down(), want)
			}
		})
	}
	downAt(15*time.Millisecond, true)
	downAt(30*time.Millisecond, false)
	downAt(65*time.Millisecond, true)
	downAt(80*time.Millisecond, false)
	downAt(115*time.Millisecond, true)
	downAt(130*time.Millisecond, false)
	loop.Run()
}

func TestInjectBurstDropsThenClears(t *testing.T) {
	loop, g, atB := world(1)
	// pgb=1, loss=1: the chain enters the bad state on the first packet
	// and drops everything for the whole window.
	spec, err := ParseSpec("burst:ch=embb,at=50ms,dur=100ms,pgb=1,pbg=0,loss=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := Inject(loop, g, spec, nil); err != nil {
		t.Fatal(err)
	}
	sendEvery(loop, g, 10*time.Millisecond, 300*time.Millisecond)
	loop.Run()

	st := g.All()[0].Stats(channel.A)
	if st.DroppedRandom == 0 {
		t.Fatal("burst window dropped nothing")
	}
	// Sends at 50..140 ms (9 packets) are consumed by the burst; the
	// rest arrive. (The packet sent at 140 ms finishes serializing at
	// 141 ms, still inside the window.)
	if want := 30 - int(st.DroppedRandom); len(*atB) != want {
		t.Fatalf("delivered %d, dropped %d, sent 30", len(*atB), st.DroppedRandom)
	}
	if st.DroppedRandom != 10 {
		t.Fatalf("burst dropped %d, want the 10 packets serialized in-window", st.DroppedRandom)
	}
}

func TestInjectSlumpSlowsDelivery(t *testing.T) {
	loop, g, atB := world(1)
	spec, err := ParseSpec("slump:ch=embb,at=50ms,dur=100ms,factor=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if err := Inject(loop, g, spec, nil); err != nil {
		t.Fatal(err)
	}
	ch := g.All()[0]
	// Idle-link sends: before the slump a packet takes 1 ms serialize +
	// 10 ms propagation; at half rate, 2 ms + 10 ms.
	var p1, p2 = &packet.Packet{ID: 1, Size: 1000}, &packet.Packet{ID: 2, Size: 1000}
	loop.At(10*time.Millisecond, func() { ch.Send(channel.A, p1) })
	loop.At(60*time.Millisecond, func() { ch.Send(channel.A, p2) })
	loop.Run()
	if len(*atB) != 2 {
		t.Fatalf("delivered %d, want 2", len(*atB))
	}
	if (*atB)[0] != 21*time.Millisecond {
		t.Fatalf("nominal arrival %v, want 21ms", (*atB)[0])
	}
	if (*atB)[1] != 72*time.Millisecond {
		t.Fatalf("slumped arrival %v, want 72ms (2 ms serialization at half rate)", (*atB)[1])
	}
}

func TestInjectSpikeAddsDelay(t *testing.T) {
	loop, g, atB := world(1)
	spec, err := ParseSpec("spike:ch=embb,at=50ms,dur=100ms,delay=30ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := Inject(loop, g, spec, nil); err != nil {
		t.Fatal(err)
	}
	ch := g.All()[0]
	var p1, p2 = &packet.Packet{ID: 1, Size: 1000}, &packet.Packet{ID: 2, Size: 1000}
	loop.At(10*time.Millisecond, func() { ch.Send(channel.A, p1) })
	loop.At(60*time.Millisecond, func() { ch.Send(channel.A, p2) })
	loop.Run()
	if len(*atB) != 2 {
		t.Fatalf("delivered %d, want 2", len(*atB))
	}
	if (*atB)[0] != 21*time.Millisecond || (*atB)[1] != 101*time.Millisecond {
		t.Fatalf("arrivals %v, want [21ms 101ms]", *atB)
	}
}

// sinkRec is a minimal telemetry.Sink recording fault events.
type sinkRec struct {
	events []telemetry.Event
}

func (s *sinkRec) Event(ev telemetry.Event) {
	if ev.Layer == telemetry.LayerFault {
		s.events = append(s.events, ev)
	}
}
func (s *sinkRec) BeginRun(string) {}
func (s *sinkRec) Close() error    { return nil }

func TestInjectEmitsTelemetry(t *testing.T) {
	loop, g, _ := world(1)
	rec := &sinkRec{}
	tr := telemetry.New(rec)
	tr.BindClock(loop.Now)
	spec, err := ParseSpec("outage:ch=embb,at=10ms,dur=10ms,every=50ms,count=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := Inject(loop, g, spec, tr); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if len(rec.events) != 4 {
		t.Fatalf("recorded %d fault events, want 4 (2 windows × start/end)", len(rec.events))
	}
	for i, want := range []struct {
		name string
		at   time.Duration
	}{
		{telemetry.EvFaultStart, 10 * time.Millisecond},
		{telemetry.EvFaultEnd, 20 * time.Millisecond},
		{telemetry.EvFaultStart, 60 * time.Millisecond},
		{telemetry.EvFaultEnd, 70 * time.Millisecond},
	} {
		ev := rec.events[i]
		if ev.Name != want.name || ev.At != want.at || ev.Channel != "embb" || ev.Detail != "outage" {
			t.Fatalf("event %d = %+v, want %s at %v on embb", i, ev, want.name, want.at)
		}
	}
	if n := tr.Registry().Value("fault_windows_total", "channel", "embb", "kind", "outage"); n != 2 {
		t.Fatalf("fault_windows_total = %v, want 2", n)
	}
}

// TestInjectDeterministic pins that an injected scenario is a pure
// function of the seed: same seed, same delivery trace; and that the
// burst processes draw only from their private streams.
func TestInjectDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		loop, g, atB := world(seed)
		spec, err := ParseSpec("burst:ch=embb,at=20ms,dur=200ms,pgb=0.3,pbg=0.2,loss=0.8")
		if err != nil {
			t.Fatal(err)
		}
		if err := Inject(loop, g, spec, nil); err != nil {
			t.Fatal(err)
		}
		sendEvery(loop, g, 5*time.Millisecond, 400*time.Millisecond)
		loop.Run()
		return *atB
	}
	if !reflect.DeepEqual(run(7), run(7)) {
		t.Fatal("same seed produced different delivery traces")
	}
	if reflect.DeepEqual(run(7), run(8)) {
		t.Fatal("different seeds produced identical burst traces (stream not seeded)")
	}
}

// An outage window holds across a scheduler jump: with nothing else
// scheduled inside the window, the loop leaps from the apply event to a
// lone timer deep in the blackout and then to the restore, and the
// channel must read down mid-window and up again after it.
func TestInjectOutageWindowRestoreAcrossJump(t *testing.T) {
	loop, g, _ := world(1)
	spec, err := ParseSpec("outage:ch=embb,at=1s,dur=1h")
	if err != nil {
		t.Fatal(err)
	}
	if err := Inject(loop, g, spec, nil); err != nil {
		t.Fatal(err)
	}
	ch := g.All()[0]
	const recovery = time.Second + time.Hour
	// One lone timer deep inside the blackout: the loop leaps from the
	// apply event to here in a single step.
	var sawMid bool
	loop.At(30*time.Minute, func() {
		sawMid = true
		if !ch.Down() {
			t.Error("channel up mid-blackout")
		}
	})
	loop.Run()
	if !sawMid {
		t.Fatal("mid-blackout timer never fired")
	}
	if loop.Now() < recovery {
		t.Fatalf("loop stopped at %v, before the restore at %v", loop.Now(), recovery)
	}
	if ch.Down() {
		t.Error("channel still down after the window")
	}
}

// TestCanonicalGolden pins String() byte for byte against a corpus
// rendered by the hand-rolled parser this package had before
// internal/spec (testdata/canonical.txt, "input => String()"): sweep cache keys, fleet reports and -repro strings embed these scenarios,
// so they must not move.
func TestCanonicalGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/canonical.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		in, want, _ := strings.Cut(line, " => ")
		got, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got.String() != want {
			t.Errorf("ParseSpec(%q).String()\n got %s\nwant %s", in, got, want)
		}
		if err := spec.RoundTrip(got, ParseSpec); err != nil {
			t.Errorf("%q: %v", in, err)
		}
	}
}
