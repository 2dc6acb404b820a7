// Real-time video over HVCs: stream 10 seconds of 3-layer SVC video
// (400/4100/7500 kbps at 30 fps) across an eMBB channel that suffers a
// mid-stream outage, plus URLLC — comparing eMBB-only, DChannel, and
// the paper's priority-aware steering. This is §3.3's first experiment
// in miniature.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"hvc/internal/app/video"
	"hvc/internal/channel"
	"hvc/internal/sim"
	"hvc/internal/steering"
	"hvc/internal/trace"
	"hvc/internal/transport"
)

func main() { report(os.Stdout) }

// report prints the comparison table to w.
func report(w io.Writer) {
	fmt.Fprintln(w, "10s of SVC video; eMBB dies from t=3s to t=6s, URLLC stays up")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %8s %8s\n",
		"policy", "p50_ms", "p95_ms", "max_ms", "ssim", "frozen")

	for _, policy := range []string{"embb-only", "dchannel", "priority"} {
		lat50, lat95, max, ssim, frozen := run(policy)
		fmt.Fprintf(w, "%-12s %10.0f %10.0f %10.0f %8.3f %8d\n",
			policy, lat50, lat95, max, ssim, frozen)
	}
}

func run(policy string) (p50, p95, max, ssim float64, frozen int) {
	loop := sim.NewLoop(7)

	// eMBB: healthy, then a 3-second blockage, then healthy again.
	embbTrace := &trace.Trace{Name: "flaky-embb", Samples: []trace.Sample{
		{At: 0, RTT: 40 * time.Millisecond, Rate: 60e6},
		{At: 3 * time.Second, RTT: 40 * time.Millisecond, Rate: 0},
		{At: 6 * time.Second, RTT: 40 * time.Millisecond, Rate: 60e6},
		{At: 60 * time.Second, RTT: 40 * time.Millisecond, Rate: 60e6},
	}}
	group := channel.NewGroup(channel.EMBB(loop, embbTrace), channel.URLLC(loop))

	steer := func(side channel.Side) steering.Policy {
		switch policy {
		case "dchannel":
			return steering.NewDChannel(group, side, steering.DChannelConfig{})
		case "priority":
			// Layer 0 (priority 0) is forced onto URLLC; enhancement
			// layers ride eMBB. This is the paper's cross-layer rule.
			return steering.NewPriority(group, side, steering.PriorityConfig{AdmitPrio: 0})
		default:
			return steering.NewSingle(group.Get(channel.NameEMBB))
		}
	}

	client := transport.NewEndpoint(loop, group, channel.A)
	server := transport.NewEndpoint(loop, group, channel.B)

	vcfg := video.Config{Duration: 10 * time.Second}
	recv := video.NewReceiver(loop, vcfg)
	server.Listen(func() transport.Config {
		return transport.Config{Steer: steer(channel.B), Unreliable: true, MsgTimeout: 30 * time.Second}
	}, func(c *transport.Conn) { recv.Attach(c) })

	conn := client.Dial(transport.Config{Steer: steer(channel.A), Unreliable: true, MsgTimeout: 30 * time.Second})
	snd := video.NewSender(loop, conn, vcfg)
	snd.Start()

	loop.RunUntil(25 * time.Second) // drain the post-outage queue

	return recv.Latency.Percentile(50), recv.Latency.Percentile(95),
		recv.Latency.Max(), recv.SSIM.Mean(), recv.Frozen(snd.FrameCount())
}
