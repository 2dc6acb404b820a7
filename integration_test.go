package hvc_test

// Integration tests over the public experiment surface: invariants
// that cut across the simulator, transport, steering, and application
// layers. These run the same code paths as cmd/hvcbench at reduced
// scale.

import (
	"testing"
	"time"

	"hvc/internal/core"
)

func TestEMBBOnlyNeverTouchesURLLC(t *testing.T) {
	r, err := core.RunBulk(core.BulkConfig{
		Seed: 1, Duration: 5 * time.Second, CC: "cubic", Policy: core.PolicyEMBBOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ChannelShare["urllc"] != 0 {
		t.Fatalf("embb-only steered %d packets to urllc", r.ChannelShare["urllc"])
	}
	if r.ChannelShare["embb"] == 0 {
		t.Fatal("no traffic at all")
	}
}

func TestDChannelUsesBothChannels(t *testing.T) {
	r, err := core.RunBulk(core.BulkConfig{
		Seed: 1, Duration: 5 * time.Second, CC: "cubic", Policy: core.PolicyDChannel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ChannelShare["urllc"] == 0 || r.ChannelShare["embb"] == 0 {
		t.Fatalf("dchannel share %v: both channels should carry traffic", r.ChannelShare)
	}
	// eMBB must carry the bulk: URLLC is 30x narrower.
	if r.ChannelShare["urllc"] > r.ChannelShare["embb"] {
		t.Fatalf("urllc carried more packets than embb: %v", r.ChannelShare)
	}
}

func TestSeedsActuallyChangeTraceDrivenResults(t *testing.T) {
	a, err := core.RunVideo(core.VideoConfig{
		Seed: 1, Duration: 15 * time.Second, Trace: "lowband-driving", Policy: core.PolicyEMBBOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RunVideo(core.VideoConfig{
		Seed: 2, Duration: 15 * time.Second, Trace: "lowband-driving", Policy: core.PolicyEMBBOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.Mean() == b.Latency.Mean() {
		t.Fatal("different seeds produced identical latency distributions")
	}
}

func TestAllRunnersDeterministic(t *testing.T) {
	type result struct {
		name string
		run  func() float64
	}
	runs := []result{
		{"bulk", func() float64 {
			r, err := core.RunBulk(core.BulkConfig{Seed: 3, Duration: 3 * time.Second, CC: "bbr"})
			if err != nil {
				t.Fatal(err)
			}
			return r.Mbps
		}},
		{"video", func() float64 {
			r, err := core.RunVideo(core.VideoConfig{Seed: 3, Duration: 5 * time.Second,
				Trace: "mmwave-driving", Policy: core.PolicyPriority})
			if err != nil {
				t.Fatal(err)
			}
			return r.Latency.Mean()
		}},
		{"web", func() float64 {
			r, err := core.RunWeb(core.WebConfig{Seed: 3, Trace: "lowband-stationary",
				Policy: core.PolicyDChannel, Pages: 2, Loads: 1})
			if err != nil {
				t.Fatal(err)
			}
			return r.PLT.Mean()
		}},
		{"abr", func() float64 {
			r, err := core.RunABR(core.ABRConfig{Seed: 3, Media: 10 * time.Second,
				Trace: "lowband-driving", Policy: core.PolicyDChannel})
			if err != nil {
				t.Fatal(err)
			}
			return float64(r.StartupDelay)
		}},
		{"game", func() float64 {
			r, err := core.RunGame(core.GameConfig{Seed: 3, Duration: 3 * time.Second,
				Trace: "lowband-driving", Policy: core.PolicyPriority})
			if err != nil {
				t.Fatal(err)
			}
			return r.InputToDisplay.Mean()
		}},
		{"mlo", func() float64 {
			return core.RunMLO(3, 300, true).DeliveryRate
		}},
		{"cost", func() float64 {
			r := core.RunCost(3, 100, 50_000)
			return r.Latency.Mean()
		}},
		{"multipath", func() float64 {
			return core.RunMultipath(3, 5*time.Second, "multipath").BulkMbps
		}},
		{"tsn", func() float64 {
			return core.RunTSN(3, 3*time.Second, true).MissRate
		}},
		{"tail", func() float64 {
			r := core.RunTailBoost(3, 50, true)
			return r.Latency.Mean()
		}},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			if a, b := r.run(), r.run(); a != b {
				t.Fatalf("%s not deterministic: %v vs %v", r.name, a, b)
			}
		})
	}
}

func TestEveryPolicyRunsEveryCompatibleWorkload(t *testing.T) {
	policies := []string{
		core.PolicyEMBBOnly, core.PolicyDChannel,
		core.PolicyPriority, core.PolicyDChannelPriority, core.PolicyObjectMap,
	}
	for _, p := range policies {
		p := p
		t.Run("video/"+p, func(t *testing.T) {
			r, err := core.RunVideo(core.VideoConfig{
				Seed: 4, Duration: 5 * time.Second, Trace: "fixed", Policy: p,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Decoded == 0 {
				t.Fatalf("policy %s decoded nothing", p)
			}
		})
	}
	for _, p := range policies {
		if p == core.PolicyPriority {
			continue // video-style forcing is rejected for web
		}
		p := p
		t.Run("web/"+p, func(t *testing.T) {
			r, err := core.RunWeb(core.WebConfig{
				Seed: 4, Trace: "lowband-stationary", Policy: p,
				Pages: 1, Loads: 1, NoBackground: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.PLT.N() != 1 {
				t.Fatalf("policy %s completed %d loads", p, r.PLT.N())
			}
		})
	}
}

func TestCCMatrixCompletesBulk(t *testing.T) {
	for _, cca := range []string{"cubic", "reno", "bbr", "vegas", "vivace",
		"hvc-cubic", "hvc-bbr", "hvc-vegas", "hvc-vivace"} {
		cca := cca
		t.Run(cca, func(t *testing.T) {
			r, err := core.RunBulk(core.BulkConfig{Seed: 5, Duration: 3 * time.Second, CC: cca})
			if err != nil {
				t.Fatal(err)
			}
			if r.Mbps <= 0 {
				t.Fatalf("%s moved no data", cca)
			}
			if r.RTT.N() == 0 {
				t.Fatalf("%s took no RTT samples", cca)
			}
		})
	}
}
