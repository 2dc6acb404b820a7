package steering

import (
	"testing"
	"time"

	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
)

// testGroup builds the standard Fig. 1 pair: fixed eMBB (50 ms/60 Mbps)
// and URLLC (5 ms/2 Mbps), with sinks discarding deliveries.
func testGroup(t *testing.T) (*sim.Loop, *channel.Group) {
	t.Helper()
	loop := sim.NewLoop(1)
	e, u := channel.EMBBFixed(loop), channel.URLLC(loop)
	for _, c := range []*channel.Channel{e, u} {
		c.SetSink(channel.A, func(*packet.Packet) {})
		c.SetSink(channel.B, func(*packet.Packet) {})
	}
	return loop, channel.NewGroup(e, u)
}

func data(size int, prio packet.Priority) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Size: size, Priority: prio}
}

func ack() *packet.Packet {
	return &packet.Packet{Kind: packet.Ack, Size: packet.HeaderBytes}
}

func TestSingleAlwaysPicksItsChannel(t *testing.T) {
	_, g := testGroup(t)
	s := NewSingle(g.Get(channel.NameEMBB))
	for i := 0; i < 5; i++ {
		chs := s.Pick(data(1500, 0))
		if len(chs) != 1 || chs[0].Name() != channel.NameEMBB {
			t.Fatalf("Pick = %v", chs)
		}
	}
	if s.Name() != "embb-only" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestNewSingleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewSingle(nil)
}

func TestDChannelAcceleratesAcksAndSmallData(t *testing.T) {
	_, g := testGroup(t)
	d := NewDChannel(g, channel.A, DChannelConfig{})
	if got := d.Pick(ack()); got[0].Name() != channel.NameURLLC {
		t.Fatalf("ACK steered to %s, want urllc", got[0].Name())
	}
	// Empty queues: a full-size data packet saves 25-2.5-6 ≈ 16.5 ms
	// against a 6 ms cost, so it is accelerated too.
	if got := d.Pick(data(1500, 0)); got[0].Name() != channel.NameURLLC {
		t.Fatalf("fresh data steered to %s, want urllc", got[0].Name())
	}
}

func TestDChannelBacksOffWhenNarrowQueueGrows(t *testing.T) {
	_, g := testGroup(t)
	d := NewDChannel(g, channel.A, DChannelConfig{})
	u := g.Get(channel.NameURLLC)
	// Build ~60 ms of backlog on URLLC (2 Mbps → 15000 B).
	for i := 0; i < 10; i++ {
		u.Send(channel.A, data(1500, 0))
	}
	if got := d.Pick(data(1500, 0)); got[0].Name() != channel.NameEMBB {
		t.Fatalf("data with URLLC backlog steered to %s, want embb", got[0].Name())
	}
	// ACKs also divert once the narrow path is slower end to end.
	if got := d.Pick(ack()); got[0].Name() != channel.NameEMBB {
		t.Fatalf("ACK with URLLC backlog steered to %s, want embb", got[0].Name())
	}
}

func TestDChannelBetaControlsAggressiveness(t *testing.T) {
	_, g := testGroup(t)
	shy := NewDChannel(g, channel.A, DChannelConfig{Beta: 10})
	if got := shy.Pick(data(1500, 0)); got[0].Name() != channel.NameEMBB {
		t.Fatalf("beta=10 should keep data on embb, got %s", got[0].Name())
	}
}

func TestDChannelDefaultsAndPanics(t *testing.T) {
	loop := sim.NewLoop(1)
	g := channel.NewGroup(channel.EMBBFixed(loop))
	defer func() {
		if recover() == nil {
			t.Error("missing narrow channel should panic")
		}
	}()
	NewDChannel(g, channel.A, DChannelConfig{})
}

func TestPriorityForcesHighPriorityMessages(t *testing.T) {
	_, g := testGroup(t)
	p := NewPriority(g, channel.A, PriorityConfig{AdmitPrio: 0})
	// Layer 0 forced to URLLC even with a backlog there.
	u := g.Get(channel.NameURLLC)
	for i := 0; i < 20; i++ {
		u.Send(channel.A, data(1500, 0))
	}
	if got := p.Pick(data(1200, 0)); got[0].Name() != channel.NameURLLC {
		t.Fatalf("prio-0 steered to %s, want urllc", got[0].Name())
	}
	// Layers 1–2 go wide (Heuristic off).
	if got := p.Pick(data(1200, 1)); got[0].Name() != channel.NameEMBB {
		t.Fatalf("prio-1 steered to %s, want embb", got[0].Name())
	}
	if p.Name() != "priority" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestPriorityExcludesBulkFlows(t *testing.T) {
	_, g := testGroup(t)
	p := NewPriority(g, channel.A, PriorityConfig{AdmitPrio: -1, Heuristic: true})
	bulk := data(200, 0)
	bulk.FlowPriority = packet.PriorityBulk
	if got := p.Pick(bulk); got[0].Name() != channel.NameEMBB {
		t.Fatalf("bulk flow steered to %s, want embb", got[0].Name())
	}
	// Even bulk ACKs stay off the narrow channel.
	bulkAck := ack()
	bulkAck.FlowPriority = packet.PriorityBulk
	if got := p.Pick(bulkAck); got[0].Name() != channel.NameEMBB {
		t.Fatalf("bulk ACK steered to %s, want embb", got[0].Name())
	}
	if p.Name() != "dchannel+priority" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestPriorityHeuristicFallback(t *testing.T) {
	_, g := testGroup(t)
	p := NewPriority(g, channel.A, PriorityConfig{AdmitPrio: -1, Heuristic: true})
	// Unforced data follows the DChannel rule: accelerated when fresh.
	if got := p.Pick(data(1500, 3)); got[0].Name() != channel.NameURLLC {
		t.Fatalf("fresh unforced data steered to %s, want urllc", got[0].Name())
	}
}

func TestPriorityAcksUseHeuristicEvenWithoutHeuristicFlag(t *testing.T) {
	_, g := testGroup(t)
	p := NewPriority(g, channel.A, PriorityConfig{AdmitPrio: 0})
	if got := p.Pick(ack()); got[0].Name() != channel.NameURLLC {
		t.Fatalf("ACK steered to %s, want urllc", got[0].Name())
	}
}

func TestRedundantReplicates(t *testing.T) {
	_, g := testGroup(t)
	r := NewRedundant(g)
	p := data(500, 0)
	chs := r.Pick(p)
	if len(chs) != 2 {
		t.Fatalf("Pick returned %d channels, want 2", len(chs))
	}
	if !p.Copy {
		t.Fatal("replicated packet should be marked Copy")
	}
	seen := map[string]bool{}
	for _, c := range chs {
		seen[c.Name()] = true
	}
	if !seen[channel.NameEMBB] || !seen[channel.NameURLLC] {
		t.Fatalf("channels %v", seen)
	}
}

func TestRedundantNeedsTwo(t *testing.T) {
	loop := sim.NewLoop(1)
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewRedundant(channel.NewGroup(channel.URLLC(loop)))
}

func TestCostAwareSpendsBudgetThenStops(t *testing.T) {
	loop := sim.NewLoop(1)
	fiber, mw := channel.CISP(loop)
	for _, c := range []*channel.Channel{fiber, mw} {
		c.SetSink(channel.A, func(*packet.Packet) {})
		c.SetSink(channel.B, func(*packet.Packet) {})
	}
	g := channel.NewGroup(fiber, mw)
	ca := NewCostAware(g, channel.A, loop.Now, CostAwareConfig{
		Cheap: "fiber", Priced: "cisp",
		BudgetBytesPerSec: 3000,
	})
	// First two 1500-byte packets fit the burst; the third does not.
	for i := 0; i < 2; i++ {
		if got := ca.Pick(data(1500, 0)); got[0].Name() != "cisp" {
			t.Fatalf("packet %d steered to %s, want cisp", i, got[0].Name())
		}
	}
	if got := ca.Pick(data(1500, 0)); got[0].Name() != "fiber" {
		t.Fatalf("over-budget packet steered to %s, want fiber", got[0].Name())
	}
	if ca.SpentBytes() != 3000 {
		t.Fatalf("SpentBytes = %d, want 3000", ca.SpentBytes())
	}
	if want := 3000 * mw.Props().CostPerByte; ca.Cost() != want {
		t.Fatalf("Cost = %v, want %v", ca.Cost(), want)
	}
}

func TestCostAwareRefillsOverTime(t *testing.T) {
	loop := sim.NewLoop(1)
	fiber, mw := channel.CISP(loop)
	for _, c := range []*channel.Channel{fiber, mw} {
		c.SetSink(channel.A, func(*packet.Packet) {})
		c.SetSink(channel.B, func(*packet.Packet) {})
	}
	g := channel.NewGroup(fiber, mw)
	ca := NewCostAware(g, channel.A, loop.Now, CostAwareConfig{
		Cheap: "fiber", Priced: "cisp",
		BudgetBytesPerSec: 1500,
	})
	if got := ca.Pick(data(1500, 0)); got[0].Name() != "cisp" {
		t.Fatal("first packet should be priced")
	}
	if got := ca.Pick(data(1500, 0)); got[0].Name() != "fiber" {
		t.Fatal("second immediate packet should be cheap")
	}
	loop.After(time.Second, func() {
		if got := ca.Pick(data(1500, 0)); got[0].Name() != "cisp" {
			t.Error("budget should have refilled after 1s")
		}
	})
	loop.Run()
}

func TestCostAwarePanics(t *testing.T) {
	loop := sim.NewLoop(1)
	fiber, mw := channel.CISP(loop)
	g := channel.NewGroup(fiber, mw)
	for name, fn := range map[string]func(){
		"missing channel": func() {
			NewCostAware(g, channel.A, loop.Now, CostAwareConfig{Cheap: "x", Priced: "cisp", BudgetBytesPerSec: 1})
		},
		"no budget": func() {
			NewCostAware(g, channel.A, loop.Now, CostAwareConfig{Cheap: "fiber", Priced: "cisp"})
		},
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

func TestCounterTallies(t *testing.T) {
	_, g := testGroup(t)
	c := NewCounter(NewSingle(g.Get(channel.NameEMBB)))
	for i := 0; i < 3; i++ {
		c.Pick(data(100, 0))
	}
	if got := c.Counts()[channel.NameEMBB]; got != 3 {
		t.Fatalf("counts = %v", c.Counts())
	}
}

func TestTailBoostDivertsTailWhenWideIsSlow(t *testing.T) {
	_, g := testGroup(t)
	base := NewSingle(g.Get(channel.NameEMBB))
	tb := NewTailBoost(base, g, channel.A)
	if tb.Name() != "embb-only+tail" {
		t.Fatalf("Name = %q", tb.Name())
	}
	// Build a deep eMBB backlog so the narrow channel is faster.
	e := g.Get(channel.NameEMBB)
	for i := 0; i < 200; i++ {
		e.Send(channel.A, data(1500, 0))
	}
	tail := data(1200, 0)
	tail.MsgRemaining = 1000 // within the 8 kB tail window
	if got := tb.Pick(tail); got[0].Name() != channel.NameURLLC {
		t.Fatalf("tail packet steered to %s, want urllc", got[0].Name())
	}
	body := data(1200, 0)
	body.MsgRemaining = 500_000 // far from the end: stays on base
	if got := tb.Pick(body); got[0].Name() != channel.NameEMBB {
		t.Fatalf("body packet steered to %s, want embb", got[0].Name())
	}
}

func TestTailBoostRespectsFasterBase(t *testing.T) {
	// With empty queues, eMBB's one-way (25 ms) still loses to URLLC
	// for a small tail packet, so the tail is diverted; but a *large*
	// tail packet costs 6 ms of URLLC serialization per 1500 B — with
	// a shallow URLLC backlog the base wins and TailBoost must not
	// divert.
	_, g := testGroup(t)
	base := NewSingle(g.Get(channel.NameEMBB))
	tb := NewTailBoost(base, g, channel.A)
	u := g.Get(channel.NameURLLC)
	for i := 0; i < 10; i++ {
		u.Send(channel.A, data(1500, 0)) // ~60 ms of URLLC backlog
	}
	tail := data(1500, 0)
	tail.MsgRemaining = 0
	if got := tb.Pick(tail); got[0].Name() != channel.NameEMBB {
		t.Fatalf("tail packet steered to %s despite URLLC backlog", got[0].Name())
	}
}

func TestTailBoostLeavesAcksAndReplicasAlone(t *testing.T) {
	_, g := testGroup(t)
	red := NewRedundant(g)
	tb := NewTailBoost(red, g, channel.A)
	p := data(500, 0)
	p.MsgRemaining = 0
	if got := tb.Pick(p); len(got) != 2 {
		t.Fatalf("replicated pick should pass through, got %d channels", len(got))
	}
	a := ack()
	base := NewSingle(g.Get(channel.NameEMBB))
	tb2 := NewTailBoost(base, g, channel.A)
	if got := tb2.Pick(a); got[0].Name() != channel.NameEMBB {
		t.Fatal("non-data packets must follow the base policy")
	}
}

func TestTailBoostValidation(t *testing.T) {
	_, g := testGroup(t)
	fiber, mw := channel.CISP(sim.NewLoop(1))
	for name, fn := range map[string]func(){
		"nil base": func() { NewTailBoost(nil, g, channel.A) },
		"no urllc": func() { NewTailBoost(NewSingle(fiber), channel.NewGroup(fiber, mw), channel.A) },
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

func TestObjectMapAssignsWholeMessages(t *testing.T) {
	_, g := testGroup(t)
	om := NewObjectMap(g, channel.A, ObjectMapConfig{SmallBytes: 5000})
	if om.Name() != "objectmap" {
		t.Fatalf("Name = %q", om.Name())
	}
	// A 3 kB message: first packet decides narrow, rest stick to it.
	first := data(1500, 0)
	first.MsgID = 7
	first.MsgRemaining = 3000 - (1500 - packet.HeaderBytes)
	if got := om.Pick(first); got[0].Name() != channel.NameURLLC {
		t.Fatalf("small object steered to %s", got[0].Name())
	}
	tail := data(200, 0)
	tail.MsgID = 7
	tail.MsgRemaining = 0
	if got := om.Pick(tail); got[0].Name() != channel.NameURLLC {
		t.Fatal("later packets must stick to the object's channel")
	}
	// A large message goes wide, including its small tail packets.
	big := data(1500, 0)
	big.MsgID = 8
	big.MsgRemaining = 500_000
	if got := om.Pick(big); got[0].Name() != channel.NameEMBB {
		t.Fatalf("large object steered to %s", got[0].Name())
	}
	bigTail := data(100, 0)
	bigTail.MsgID = 8
	bigTail.MsgRemaining = 0
	if got := om.Pick(bigTail); got[0].Name() != channel.NameEMBB {
		t.Fatal("IANS never splits an object across channels")
	}
}

func TestObjectMapControlGoesWide(t *testing.T) {
	_, g := testGroup(t)
	om := NewObjectMap(g, channel.A, ObjectMapConfig{})
	if got := om.Pick(ack()); got[0].Name() != channel.NameEMBB {
		t.Fatalf("ACK steered to %s, want embb", got[0].Name())
	}
}

func TestObjectMapValidation(t *testing.T) {
	_, g := testGroup(t)
	defer func() {
		if recover() == nil {
			t.Error("missing channel should panic")
		}
	}()
	NewObjectMap(g, channel.A, ObjectMapConfig{Narrow: "nope"})
}
