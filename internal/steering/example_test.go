package steering_test

import (
	"fmt"

	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
)

// ExampleDChannel shows the reward/cost heuristic deciding between a
// wide and a narrow channel: small packets are accelerated while the
// narrow channel is fresh, then diverted once its queue builds.
func ExampleDChannel() {
	loop := sim.NewLoop(1)
	embb, urllc := channel.EMBBFixed(loop), channel.URLLC(loop)
	urllc.SetSink(channel.B, func(*packet.Packet) {})
	group := channel.NewGroup(embb, urllc)

	policy := steering.NewDChannel(group, channel.A, steering.DChannelConfig{})

	fresh := &packet.Packet{Kind: packet.Data, Size: 1200}
	fmt.Println("fresh data →", policy.Pick(fresh)[0].Name())

	// Build ~80 ms of URLLC backlog, then ask again.
	for i := 0; i < 14; i++ {
		urllc.Send(channel.A, &packet.Packet{ID: uint64(i), Size: 1400})
	}
	fmt.Println("with backlog →", policy.Pick(fresh)[0].Name())
	// Output:
	// fresh data → urllc
	// with backlog → embb
}

// ExamplePriority shows the cross-layer policy honoring application
// priorities: priority-0 messages are forced onto the low-latency
// channel, bulk flows are kept off it entirely.
func ExamplePriority() {
	loop := sim.NewLoop(1)
	group := channel.NewGroup(channel.EMBBFixed(loop), channel.URLLC(loop))
	policy := steering.NewPriority(group, channel.A, steering.PriorityConfig{AdmitPrio: 0})

	layer0 := &packet.Packet{Kind: packet.Data, Size: 1200, Priority: 0}
	layer2 := &packet.Packet{Kind: packet.Data, Size: 1200, Priority: 2}
	bulk := &packet.Packet{Kind: packet.Data, Size: 1200, FlowPriority: packet.PriorityBulk}

	fmt.Println("layer 0 →", policy.Pick(layer0)[0].Name())
	fmt.Println("layer 2 →", policy.Pick(layer2)[0].Name())
	fmt.Println("bulk    →", policy.Pick(bulk)[0].Name())
	// Output:
	// layer 0 → urllc
	// layer 2 → embb
	// bulk    → embb
}

// ExampleCostAware shows budgeted use of a priced path.
func ExampleCostAware() {
	loop := sim.NewLoop(1)
	fiber, microwave := channel.CISP(loop)
	group := channel.NewGroup(fiber, microwave)
	policy := steering.NewCostAware(group, channel.A, loop.Now, steering.CostAwareConfig{
		Cheap: "fiber", Priced: "cisp", BudgetBytesPerSec: 2000,
	})
	for i := 0; i < 3; i++ {
		p := &packet.Packet{Kind: packet.Data, Size: 1000}
		fmt.Printf("packet %d → %s\n", i, policy.Pick(p)[0].Name())
	}
	fmt.Printf("spent $%.4f\n", policy.Cost())
	// Output:
	// packet 0 → cisp
	// packet 1 → cisp
	// packet 2 → fiber
	// spent $0.0020
}
