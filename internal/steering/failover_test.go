package steering

import (
	"testing"

	"hvc/internal/channel"
	"hvc/internal/packet"
)

// Failover behavior under fault-injection outages (see internal/fault):
// every adaptive policy must stop picking a dead channel, and must
// return to its ordinary rule the moment the channel recovers.

func TestDChannelFailsOverOffDeadChannel(t *testing.T) {
	_, g := testGroup(t)
	d := NewDChannel(g, channel.A, DChannelConfig{})
	urllc, embb := g.Get(channel.NameURLLC), g.Get(channel.NameEMBB)

	// The hour-long QueueDelay a down channel advertises steers the
	// reward/cost rule off it; the failover helper is the backstop in
	// case a rule ignores queue delays (exercised in the Priority test).
	urllc.SetOutage(true)
	if got := d.Pick(ack()); got[0] != embb {
		t.Fatalf("ACK steered to dead urllc")
	}
	urllc.SetOutage(false)

	embb.SetOutage(true)
	if got := d.Pick(data(1500, 7)); got[0] != urllc {
		t.Fatalf("data steered to dead embb")
	}
	embb.SetOutage(false)
	if got := d.Pick(ack()); got[0] != urllc {
		t.Fatal("recovered channels should restore the ordinary rule")
	}
}

func TestPriorityFailsOverBothWays(t *testing.T) {
	_, g := testGroup(t)
	pr := NewPriority(g, channel.A, PriorityConfig{AdmitPrio: 0})
	urllc, embb := g.Get(channel.NameURLLC), g.Get(channel.NameEMBB)

	// The forced prio-0 rule yields when the narrow channel is dead.
	urllc.SetOutage(true)
	if got := pr.Pick(data(1500, 0)); got[0] != embb {
		t.Fatal("prio-0 data steered to dead urllc")
	}
	if pr.LastReason() != "failover:embb" {
		t.Fatalf("reason = %q", pr.LastReason())
	}
	urllc.SetOutage(false)

	// Bulk flows normally never touch the narrow channel — unless the
	// wide one is dead.
	embb.SetOutage(true)
	bulk := data(1500, 7)
	bulk.FlowPriority = packet.PriorityBulk
	if got := pr.Pick(bulk); got[0] != urllc {
		t.Fatal("bulk data steered to dead embb")
	}
	embb.SetOutage(false)
	if got := pr.Pick(bulk); got[0] != embb {
		t.Fatal("bulk should return to embb after recovery")
	}
}

func TestRedundantSkipsDeadChannel(t *testing.T) {
	_, g := testGroup(t)
	r := NewRedundant(g)
	embb := g.Get(channel.NameEMBB)

	p := data(1500, 0)
	if got := r.Pick(p); len(got) != 2 || !p.Copy {
		t.Fatalf("healthy Pick = %d channels, Copy=%v; want 2, true", len(got), p.Copy)
	}

	// A copy queued on a dead channel cannot mask the outage — it only
	// resurfaces as a stale duplicate later. Replicate on the live set.
	embb.SetOutage(true)
	p2 := data(1500, 0)
	got := r.Pick(p2)
	if len(got) != 1 || got[0].Name() != channel.NameURLLC {
		t.Fatalf("Pick with embb down = %v", got)
	}
	if p2.Copy {
		t.Fatal("single live channel must not set Copy")
	}

	// All dead: replicate everywhere and let the copies race out at
	// recovery.
	g.Get(channel.NameURLLC).SetOutage(true)
	p3 := data(1500, 0)
	if got := r.Pick(p3); len(got) != 2 || !p3.Copy {
		t.Fatalf("all-down Pick = %d channels, Copy=%v; want 2, true", len(got), p3.Copy)
	}
}

func TestCostAwareFailoverOverridesBudget(t *testing.T) {
	loop, g := testGroup(t)
	// A starvation budget: 1 B/s can never afford a packet.
	c := NewCostAware(g, channel.A, loop.Now, CostAwareConfig{
		Cheap: channel.NameEMBB, Priced: channel.NameURLLC, BudgetBytesPerSec: 1,
	})
	embb, urllc := g.Get(channel.NameEMBB), g.Get(channel.NameURLLC)

	if got := c.Pick(data(1500, 0)); got[0] != embb {
		t.Fatalf("budget-starved Pick = %s, want embb (reason %s)", got[0].Name(), c.LastReason())
	}

	// Liveness overrides the budget: with the cheap channel dead, the
	// priced one carries the flow (and the spend is still metered).
	embb.SetOutage(true)
	if got := c.Pick(data(1500, 0)); got[0] != urllc {
		t.Fatal("Pick stayed on dead embb instead of spending")
	}
	if c.LastReason() != "failover:urllc" {
		t.Fatalf("reason = %q", c.LastReason())
	}
	if c.SpentBytes() != 1500 {
		t.Fatalf("SpentBytes = %d, want 1500 (failover traffic is metered)", c.SpentBytes())
	}
	embb.SetOutage(false)

	// A dead priced channel needs no special path: its hour-long queue
	// delay makes the benefit negative and the rule picks cheap.
	urllc.SetOutage(true)
	if got := c.Pick(data(1500, 0)); got[0] != embb {
		t.Fatal("Pick chose the dead priced channel")
	}
}

func TestTailBoostSkipsDeadNarrow(t *testing.T) {
	_, g := testGroup(t)
	tb := NewTailBoost(NewSingle(g.Get(channel.NameEMBB)), g, channel.A)
	tail := data(1500, 0) // MsgRemaining 0 < 8 kB: qualifies

	if got := tb.Pick(tail); got[0].Name() != channel.NameURLLC {
		t.Fatal("tail segment should be boosted while urllc is up")
	}
	g.Get(channel.NameURLLC).SetOutage(true)
	if got := tb.Pick(tail); got[0].Name() != channel.NameEMBB {
		t.Fatal("tail segment diverted to a dead narrow channel")
	}
}

func TestObjectMapDetoursAroundOutage(t *testing.T) {
	_, g := testGroup(t)
	o := NewObjectMap(g, channel.A, ObjectMapConfig{})
	urllc, embb := g.Get(channel.NameURLLC), g.Get(channel.NameEMBB)

	small := data(1000, 0)
	small.MsgID = 1
	if got := o.Pick(small); got[0] != urllc {
		t.Fatal("small object should map to urllc")
	}
	// The assignment stays sticky, but packets detour while the
	// assigned channel is down...
	urllc.SetOutage(true)
	if got := o.Pick(small); got[0] != embb {
		t.Fatal("packet rode the dead assigned channel")
	}
	if o.LastReason() != "failover:embb" {
		t.Fatalf("reason = %q", o.LastReason())
	}
	// ...and return to it on recovery.
	urllc.SetOutage(false)
	if got := o.Pick(small); got[0] != urllc {
		t.Fatal("recovered assignment not restored")
	}
	if o.LastReason() != "object-sticky" {
		t.Fatalf("reason = %q, want object-sticky", o.LastReason())
	}
}

// TestSingleNeverFailsOver pins the baseline: Single is the no-HVC
// reference whose outage stall the adaptive policies are measured
// against, so it keeps sending into the blackout.
func TestSingleNeverFailsOver(t *testing.T) {
	_, g := testGroup(t)
	embb := g.Get(channel.NameEMBB)
	s := NewSingle(embb)
	embb.SetOutage(true)
	if got := s.Pick(data(1500, 0)); got[0] != embb {
		t.Fatal("Single must not fail over")
	}
}

// TestFailoverSteadyStateAllocFree pins that the outage checks did not
// add allocations to the steering hot path.
func TestFailoverSteadyStateAllocFree(t *testing.T) {
	_, g := testGroup(t)
	d := NewDChannel(g, channel.A, DChannelConfig{})
	r := NewRedundant(g)
	g.Get(channel.NameEMBB).SetOutage(true)
	p := data(1500, 0)
	d.Pick(p)
	r.Pick(p)
	if avg := testing.AllocsPerRun(200, func() {
		d.Pick(p)
		r.Pick(p)
	}); avg != 0 {
		t.Fatalf("steering under outage allocates %.1f/op, want 0", avg)
	}
}
