package video

// White-box tests of the receiver's decode rule, driving onMessage
// directly with synthetic transport messages so arrival timing is
// exact and no network is involved.

import (
	"testing"
	"time"

	"hvc/internal/sim"
	"hvc/internal/transport"
)

// deliver injects one layer message for a frame at the current virtual
// time, as if it had just arrived.
func deliver(r *Receiver, frame, layer int, sentAt time.Duration) {
	r.onMessage(transport.Message{
		Data:   &layerMsg{frame: frame, layer: layer},
		SentAt: sentAt,
	})
}

func newTestReceiver(loop *sim.Loop) *Receiver {
	return NewReceiver(loop, Config{Duration: time.Minute})
}

func TestDecodeWaitsSixtyMs(t *testing.T) {
	loop := sim.NewLoop(1)
	r := newTestReceiver(loop)
	loop.At(10*time.Millisecond, func() { deliver(r, 0, 0, 0) })
	loop.Run()
	if r.Decoded != 1 {
		t.Fatalf("decoded %d frames, want 1", r.Decoded)
	}
	// L0 arrived at 10 ms; no later frames arrived, so the 60 ms wait
	// expires and the frame decodes at 70 ms with latency 70 ms.
	if got := r.Latency.Max(); got != 70 {
		t.Fatalf("latency %v ms, want 70", got)
	}
	if got := r.SSIM.Max(); got != SSIMByLayer[0] {
		t.Fatalf("ssim %v, want layer-0 quality", got)
	}
}

func TestDecodeEarlyWhenNextTwoLayer0sArrive(t *testing.T) {
	loop := sim.NewLoop(1)
	r := newTestReceiver(loop)
	loop.At(10*time.Millisecond, func() { deliver(r, 0, 0, 0) })
	loop.At(20*time.Millisecond, func() { deliver(r, 1, 0, 0) })
	loop.At(30*time.Millisecond, func() { deliver(r, 2, 0, 0) })
	loop.Run()
	if r.Decoded != 3 {
		t.Fatalf("decoded %d frames, want 3", r.Decoded)
	}
	// Frame 0 must decode at 30 ms (when frame 2's L0 lands), not 70.
	if got := r.Latency.Min(); got != 30 {
		t.Fatalf("min latency %v ms, want 30 (early trigger)", got)
	}
}

func TestHigherLayersNeedAllLowerLayers(t *testing.T) {
	loop := sim.NewLoop(1)
	r := newTestReceiver(loop)
	// Frame 0 (a keyframe): L0 and L2 arrive, L1 missing → decode at
	// layer 0 only.
	loop.At(time.Millisecond, func() {
		deliver(r, 0, 0, 0)
		deliver(r, 0, 2, 0)
	})
	loop.Run()
	if got := r.SSIM.Max(); got != SSIMByLayer[0] {
		t.Fatalf("ssim %v: L2 must not decode without L1", got)
	}
}

func TestInterFrameDependency(t *testing.T) {
	loop := sim.NewLoop(1)
	r := newTestReceiver(loop)
	// Frame 0: all layers. Frame 1: all layers, but frame 0 will have
	// decoded at L0 only if its enhancement layers never came — so
	// send frame 0 with L0 only, frame 1 with everything. Frame 1 must
	// still decode at L0 (dependency on frame 0's decode level).
	loop.At(1*time.Millisecond, func() { deliver(r, 0, 0, 0) })
	loop.At(2*time.Millisecond, func() {
		deliver(r, 1, 0, 0)
		deliver(r, 1, 1, 0)
		deliver(r, 1, 2, 0)
	})
	loop.At(3*time.Millisecond, func() { deliver(r, 2, 0, 0) })
	loop.At(4*time.Millisecond, func() { deliver(r, 3, 0, 0) })
	loop.Run()
	for _, v := range r.SSIM.Values() {
		if v != SSIMByLayer[0] {
			t.Fatalf("frame decoded at %v despite broken dependency chain", v)
		}
	}
}

func TestKeyframeResetsDependency(t *testing.T) {
	loop := sim.NewLoop(1)
	r := NewReceiver(loop, Config{Duration: time.Minute, KeyframeInterval: 2})
	// Frame 0: L0 only (decodes at layer 0). Frame 1: full layers but
	// chained to frame 0 → layer 0. Frame 2 is a keyframe (2 % 2 == 0):
	// full layers decode at layer 2 despite frame 1's level.
	loop.At(1*time.Millisecond, func() { deliver(r, 0, 0, 0) })
	loop.At(2*time.Millisecond, func() {
		for l := 0; l < Layers; l++ {
			deliver(r, 1, l, 0)
		}
	})
	loop.At(3*time.Millisecond, func() {
		for l := 0; l < Layers; l++ {
			deliver(r, 2, l, 0)
		}
	})
	loop.Run()
	if r.Decoded != 3 {
		t.Fatalf("decoded %d, want 3", r.Decoded)
	}
	if got := r.SSIM.Max(); got != SSIMByLayer[2] {
		t.Fatalf("keyframe should decode at layer 2, best ssim %v", got)
	}
}

func TestLateEnhancementAfterDecodeIsDiscarded(t *testing.T) {
	loop := sim.NewLoop(1)
	r := newTestReceiver(loop)
	loop.At(time.Millisecond, func() { deliver(r, 0, 0, 0) })
	// L1/L2 arrive long after the 60 ms decode deadline.
	loop.At(200*time.Millisecond, func() {
		deliver(r, 0, 1, 0)
		deliver(r, 0, 2, 0)
	})
	loop.Run()
	if r.Decoded != 1 {
		t.Fatalf("decoded %d, want 1", r.Decoded)
	}
	if got := r.SSIM.Max(); got != SSIMByLayer[0] {
		t.Fatalf("late layers must not upgrade a decoded frame: %v", got)
	}
}

func TestFrameWithoutLayer0NeverDecodes(t *testing.T) {
	loop := sim.NewLoop(1)
	r := newTestReceiver(loop)
	loop.At(time.Millisecond, func() {
		deliver(r, 0, 1, 0)
		deliver(r, 0, 2, 0)
	})
	loop.Run()
	if r.Decoded != 0 {
		t.Fatalf("decoded %d frames without layer 0", r.Decoded)
	}
	if r.Frozen(1) != 1 {
		t.Fatalf("Frozen(1) = %d, want 1", r.Frozen(1))
	}
}

func TestLatencyMeasuredFromCapture(t *testing.T) {
	loop := sim.NewLoop(1)
	r := newTestReceiver(loop)
	// Captured (sent) at 100 ms, arrives at 150 ms, decodes at 210 ms.
	loop.At(150*time.Millisecond, func() { deliver(r, 0, 0, 100*time.Millisecond) })
	loop.Run()
	if got := r.Latency.Max(); got != 110 {
		t.Fatalf("latency %v ms, want 110 (decode at 210 - capture at 100)", got)
	}
}

func TestOutOfOrderLayer0sTriggerEarlierFrames(t *testing.T) {
	loop := sim.NewLoop(1)
	r := newTestReceiver(loop)
	// L0 of frames 1 and 2 arrive before frame 0's: when frame 0's L0
	// finally lands, its wait condition is already satisfied and it
	// decodes immediately.
	loop.At(1*time.Millisecond, func() { deliver(r, 1, 0, 0) })
	loop.At(2*time.Millisecond, func() { deliver(r, 2, 0, 0) })
	loop.At(30*time.Millisecond, func() { deliver(r, 0, 0, 0) })
	loop.Run()
	if r.Decoded != 3 {
		t.Fatalf("decoded %d, want 3", r.Decoded)
	}
	// Frame 0 decodes at its own arrival instant (30 ms), since the
	// next two L0s already arrived.
	if got := r.Latency.Min(); got != 30 {
		t.Fatalf("min latency %v, want 30", got)
	}
}

func TestDuplicateLayerDeliveryIsIdempotent(t *testing.T) {
	loop := sim.NewLoop(1)
	r := newTestReceiver(loop)
	loop.At(time.Millisecond, func() {
		deliver(r, 0, 0, 0)
		deliver(r, 0, 0, 0) // duplicate
	})
	loop.Run()
	if r.Decoded != 1 {
		t.Fatalf("decoded %d, want 1", r.Decoded)
	}
	if r.Latency.N() != 1 {
		t.Fatalf("latency recorded %d times", r.Latency.N())
	}
}
