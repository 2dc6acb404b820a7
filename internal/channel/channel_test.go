package channel

import (
	"slices"
	"testing"
	"time"

	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/trace"
)

func TestSideOther(t *testing.T) {
	if A.Other() != B || B.Other() != A {
		t.Fatal("Other() broken")
	}
	if A.String() != "A" || B.String() != "B" {
		t.Fatal("String() broken")
	}
}

func TestDuplexDelivery(t *testing.T) {
	loop := sim.NewLoop(1)
	c := URLLC(loop)
	var atA, atB []*packet.Packet
	c.SetSink(A, func(p *packet.Packet) { atA = append(atA, p) })
	c.SetSink(B, func(p *packet.Packet) { atB = append(atB, p) })

	if !c.Send(A, &packet.Packet{ID: 1, Size: 100}) {
		t.Fatal("A→B send rejected")
	}
	if !c.Send(B, &packet.Packet{ID: 2, Size: 100}) {
		t.Fatal("B→A send rejected")
	}
	loop.Run()
	if len(atB) != 1 || atB[0].ID != 1 {
		t.Fatalf("B received %v", atB)
	}
	if len(atA) != 1 || atA[0].ID != 2 {
		t.Fatalf("A received %v", atA)
	}
	if atB[0].Channel != NameURLLC {
		t.Fatalf("channel stamp %q", atB[0].Channel)
	}
}

func TestDeliveryWithoutSinkPanics(t *testing.T) {
	loop := sim.NewLoop(1)
	c := URLLC(loop)
	c.Send(A, &packet.Packet{ID: 1, Size: 100})
	defer func() {
		if recover() == nil {
			t.Error("delivery with no sink should panic")
		}
	}()
	loop.Run()
}

// TestPresetRows pins every preset's row — name, RTT, rate, loss, cost
// per byte and queue cap (0 is netem's default) — and checks that each
// constant preset's trace holds exactly its row's RTT and rate.
func TestPresetRows(t *testing.T) {
	type row struct {
		Properties
		queue int
	}
	const ms = time.Millisecond
	loop := sim.NewLoop(1)
	pair := func(a, b *Channel) []*Channel { return []*Channel{a, b} }
	for _, tc := range []struct {
		preset string
		chs    []*Channel
		rows   []row
	}{
		{"EMBBFixed", []*Channel{EMBBFixed(loop)}, []row{{Properties{Name: "embb", BaseRTT: 50 * ms, Bandwidth: 60e6}, 0}}},
		{"URLLC", []*Channel{URLLC(loop)}, []row{{Properties{Name: "urllc", BaseRTT: 5 * ms, Bandwidth: 2e6}, 64 << 10}}},
		{"WiFiMLO", pair(WiFiMLO(loop)), []row{
			{Properties{Name: "wifi5", BaseRTT: 20 * ms, Bandwidth: 120e6, LossProb: 0.02}, 0},
			{Properties{Name: "wifi6ghz", BaseRTT: 4 * ms, Bandwidth: 40e6}, 0}}},
		{"CISP", pair(CISP(loop)), []row{
			{Properties{Name: "fiber", BaseRTT: 40 * ms, Bandwidth: 1e9}, 0},
			{Properties{Name: "cisp", BaseRTT: 13 * ms, Bandwidth: 10e6, CostPerByte: 1e-6}, 0}}},
		{"LEO", pair(LEO(loop)), []row{
			{Properties{Name: "terrestrial", BaseRTT: 70 * ms, Bandwidth: 500e6}, 0},
			{Properties{Name: "leo", BaseRTT: 30 * ms, Bandwidth: 50e6, LossProb: 0.005}, 0}}},
		{"WiFiTSN(1)", pair(WiFiTSN(loop, 1)), []row{
			{Properties{Name: "wifi-tsn", BaseRTT: 8 * ms, Bandwidth: 8e6}, 64 << 10},
			{Properties{Name: "wifi-be", BaseRTT: 24 * ms, Bandwidth: 142e6, LossProb: 0.01}, 0}}},
		{"WiFiTSN(8)", pair(WiFiTSN(loop, 8)), []row{
			{Properties{Name: "wifi-tsn", BaseRTT: 8 * ms, Bandwidth: 8e6}, 64 << 10},
			{Properties{Name: "wifi-be", BaseRTT: 52 * ms, Bandwidth: 86e6, LossProb: 0.01}, 0}}},
		{"WiFiTSN(100)", pair(WiFiTSN(loop, 100)), []row{
			{Properties{Name: "wifi-tsn", BaseRTT: 8 * ms, Bandwidth: 8e6}, 64 << 10},
			{Properties{Name: "wifi-be", BaseRTT: 420 * ms, Bandwidth: 20e6, LossProb: 0.01}, 0}}},
	} {
		for i, c := range tc.chs {
			want := tc.rows[i]
			if got := (row{c.Props(), c.cfg.QueueBytes}); got != want {
				t.Errorf("%s channel %d: row %+v, want %+v", tc.preset, i, got, want)
			}
			samples := []trace.Sample{{RTT: want.BaseRTT, Rate: want.Bandwidth}}
			if tr := c.cfg.DownTrace; !slices.Equal(tr.Samples, samples) {
				t.Errorf("%s channel %d: trace %+v, want the row's %+v", tc.preset, i, tr.Samples, samples)
			}
		}
	}
}

func TestURLLCLatency(t *testing.T) {
	loop := sim.NewLoop(1)
	c := URLLC(loop)
	var arrived time.Duration
	c.SetSink(B, func(p *packet.Packet) { arrived = loop.Now() })
	c.SetSink(A, func(p *packet.Packet) {})
	// 250-byte packet at 2 Mbps = 1 ms serialize + 2.5 ms propagation.
	c.Send(A, &packet.Packet{ID: 1, Size: 250})
	loop.Run()
	if want := 3500 * time.Microsecond; arrived != want {
		t.Fatalf("URLLC one-way = %v, want %v", arrived, want)
	}
}

func TestEMBBFixedProps(t *testing.T) {
	loop := sim.NewLoop(1)
	c := EMBBFixed(loop)
	p := c.Props()
	if p.Name != NameEMBB || p.BaseRTT != 50*time.Millisecond || p.Bandwidth != 60e6 {
		t.Fatalf("props = %+v", p)
	}
}

func TestEMBBFollowsTrace(t *testing.T) {
	loop := sim.NewLoop(1)
	tr := trace.LowbandDriving(1, 30*time.Second)
	c := EMBB(loop, tr)
	if c.Props().BaseRTT != tr.At(0).RTT {
		t.Fatal("BaseRTT should come from the trace's first sample")
	}
}

func TestQueueObservability(t *testing.T) {
	loop := sim.NewLoop(1)
	c := URLLC(loop)
	c.SetSink(B, func(*packet.Packet) {})
	c.Send(A, &packet.Packet{ID: 1, Size: 1000})
	c.Send(A, &packet.Packet{ID: 2, Size: 1000})
	if c.QueuedBytes(A) != 2000 {
		t.Fatalf("QueuedBytes(A) = %d, want 2000", c.QueuedBytes(A))
	}
	if c.QueuedBytes(B) != 0 {
		t.Fatalf("QueuedBytes(B) = %d, want 0", c.QueuedBytes(B))
	}
	if c.QueueDelay(A) <= 0 {
		t.Fatal("QueueDelay(A) should be positive with a backlog")
	}
	loop.Run()
	st := c.Stats(A)
	if st.Delivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGroupLookup(t *testing.T) {
	loop := sim.NewLoop(1)
	e, u := EMBBFixed(loop), URLLC(loop)
	g := NewGroup(e, u)
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Get(NameEMBB) != e || g.Get(NameURLLC) != u {
		t.Fatal("Get by name broken")
	}
	if g.Get("nope") != nil {
		t.Fatal("Get of unknown name should be nil")
	}
	if all := g.All(); len(all) != 2 || all[0] != e || all[1] != u {
		t.Fatal("All order not preserved")
	}
}

func TestGroupDuplicateNamePanics(t *testing.T) {
	loop := sim.NewLoop(1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate names should panic")
		}
	}()
	NewGroup(URLLC(loop), URLLC(loop))
}

func TestNilDownTracePanics(t *testing.T) {
	loop := sim.NewLoop(1)
	defer func() {
		if recover() == nil {
			t.Error("nil DownTrace should panic")
		}
	}()
	New(loop, Config{Props: Properties{Name: "x"}})
}

func TestStandardPairs(t *testing.T) {
	loop := sim.NewLoop(1)
	b5, b6 := WiFiMLO(loop)
	if b5.Props().Bandwidth <= b6.Props().Bandwidth {
		t.Fatal("5 GHz band should be the wide one")
	}
	fiber, mw := CISP(loop)
	if mw.Props().CostPerByte <= 0 || fiber.Props().CostPerByte != 0 {
		t.Fatal("cISP path should be the priced one")
	}
	if mw.Props().BaseRTT >= fiber.Props().BaseRTT {
		t.Fatal("cISP path should be faster")
	}
	terr, leo := LEO(loop)
	if leo.Props().BaseRTT >= terr.Props().BaseRTT {
		t.Fatal("LEO should have lower base RTT")
	}
	if leo.Props().Bandwidth >= terr.Props().Bandwidth {
		t.Fatal("LEO should have less bandwidth")
	}
}

func TestWiFiTSNContentionCost(t *testing.T) {
	loop := sim.NewLoop(1)
	_, be1 := WiFiTSN(loop, 1)
	_, be8 := WiFiTSN(loop, 8)
	if be8.Props().BaseRTT <= be1.Props().BaseRTT {
		t.Fatal("more TSN users must raise best-effort latency")
	}
	if be8.Props().Bandwidth >= be1.Props().Bandwidth {
		t.Fatal("more TSN users must shrink best-effort capacity")
	}
	// Capacity floor holds even at absurd user counts.
	_, beMany := WiFiTSN(loop, 100)
	if beMany.Props().Bandwidth < 20e6 {
		t.Fatalf("best-effort floor violated: %v", beMany.Props().Bandwidth)
	}
}

func TestWiFiTSNValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("0 users should panic")
		}
	}()
	WiFiTSN(sim.NewLoop(1), 0)
}

// Property: a channel delivers every accepted packet exactly once per
// direction when lossless, regardless of interleaving.
func TestChannelDeliveryConservation(t *testing.T) {
	loop := sim.NewLoop(11)
	c := EMBBFixed(loop)
	var gotA, gotB int
	c.SetSink(A, func(*packet.Packet) { gotA++ })
	c.SetSink(B, func(*packet.Packet) { gotB++ })
	const n = 500
	for i := 0; i < n; i++ {
		i := i
		loop.At(time.Duration(i)*time.Millisecond, func() {
			c.Send(A, &packet.Packet{ID: uint64(2 * i), Size: 800})
			c.Send(B, &packet.Packet{ID: uint64(2*i + 1), Size: 800})
		})
	}
	loop.Run()
	if gotA != n || gotB != n {
		t.Fatalf("delivered A=%d B=%d, want %d each", gotA, gotB, n)
	}
	if c.Stats(A).Delivered != n || c.Stats(B).Delivered != n {
		t.Fatalf("stats disagree: %+v %+v", c.Stats(A), c.Stats(B))
	}
}

func TestChannelDirectionIsolation(t *testing.T) {
	// Saturating one direction must not delay the other.
	loop := sim.NewLoop(12)
	c := EMBBFixed(loop)
	var bAt time.Duration
	c.SetSink(B, func(*packet.Packet) {})
	c.SetSink(A, func(*packet.Packet) { bAt = loop.Now() })
	// Flood A→B.
	for i := 0; i < 500; i++ {
		c.Send(A, &packet.Packet{ID: uint64(i), Size: 1500})
	}
	// One probe B→A at t=0: must arrive at propagation + tx, not
	// behind the flood.
	c.Send(B, &packet.Packet{ID: 9999, Size: 1500})
	loop.Run()
	if bAt > 26*time.Millisecond {
		t.Fatalf("reverse-direction probe delayed to %v by forward flood", bAt)
	}
}
