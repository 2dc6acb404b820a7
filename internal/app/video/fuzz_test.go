package video

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hvc/internal/sim"
	"hvc/internal/telemetry"
	"hvc/internal/transport"
)

// A decodeRec is one decoded frame: which, at what level, when.
type decodeRec struct {
	frame, level int
	at           time.Duration
}

// refReceiver is the decode rule as it stood with one timer closure per
// layer-0 arrival, each closure naming its frame: the reference the
// receiver's shared decode callback and due list must match timer for
// timer.
type refReceiver struct {
	loop    *sim.Loop
	cfg     Config
	frames  []refFrame
	decodes []decodeRec
}

type refFrame struct {
	got      [Layers]bool
	timer    sim.Timer
	decodedL int
}

func newRefReceiver(loop *sim.Loop, cfg Config) *refReceiver {
	cfg.fillDefaults()
	r := &refReceiver{loop: loop, cfg: cfg, frames: make([]refFrame, cfg.frameCount())}
	for f := range r.frames {
		r.frames[f].decodedL = -1
	}
	return r
}

func (r *refReceiver) frame(f int) *refFrame {
	if f < 0 || f >= len(r.frames) {
		return nil
	}
	return &r.frames[f]
}

func (r *refReceiver) onLayer(f, layer int) {
	fs := r.frame(f)
	if fs.decodedL >= 0 {
		return
	}
	fs.got[layer] = true
	if layer == 0 {
		fs.timer = r.loop.After(decodeWait, func() { r.decode(f) })
		for _, earlier := range []int{f - 2, f - 1, f} {
			es := r.frame(earlier)
			if es == nil || es.decodedL >= 0 || !es.got[0] {
				continue
			}
			if r.l0Arrived(earlier+1) && r.l0Arrived(earlier+2) {
				r.decode(earlier)
			}
		}
	}
}

func (r *refReceiver) l0Arrived(f int) bool {
	fs := r.frame(f)
	return fs != nil && (fs.got[0] || fs.decodedL >= 0)
}

func (r *refReceiver) decode(f int) {
	fs := r.frame(f)
	if fs == nil || fs.decodedL >= 0 || !fs.got[0] {
		return
	}
	fs.timer.Stop()
	level := 0
	for l := 1; l < Layers; l++ {
		prev := r.frame(f - 1)
		if !fs.got[l] || (f%r.cfg.KeyframeInterval != 0 && (prev == nil || prev.decodedL < l)) {
			break
		}
		level = l
	}
	fs.decodedL = level
	r.decodes = append(r.decodes, decodeRec{f, level, r.loop.Now()})
	fs.timer = sim.Timer{}
}

// decodeLog is a telemetry sink that keeps the receiver's decodes.
type decodeLog struct{ decodes []decodeRec }

func (d *decodeLog) Event(ev telemetry.Event) {
	if ev.Name == telemetry.EvFrameDecode {
		d.decodes = append(d.decodes, decodeRec{int(ev.Msg), int(ev.Value), ev.At})
	}
}
func (d *decodeLog) BeginRun(string) {}
func (d *decodeLog) Close() error    { return nil }

// fuzzFrames and fuzzKeyframes shape the fuzzed stream: a keyframe
// every four frames puts both dependency rules in reach.
const (
	fuzzFrames    = 12
	fuzzKeyframes = 4
)

// FuzzDecodeTimers drives the receiver and refReceiver with the same
// layer deliveries, each on its own loop, and steps the loops in
// lockstep: the decodes so far, the events run and the events pending
// must agree after every step. Each delivery is two bytes: the first
// picks the frame (mod fuzzFrames) and the layer (the quotient, mod
// Layers), the second the gap in milliseconds since the previous one
// (mod 80, so some gaps exceed the 60 ms wait and some are zero, which
// puts two deliveries, or a delivery and a deadline, at one instant).
func FuzzDecodeTimers(f *testing.F) {
	l0 := func(frame int) byte { return byte(frame) }
	l1 := func(frame int) byte { return byte(fuzzFrames + frame) }
	l2 := func(frame int) byte { return byte(2*fuzzFrames + frame) }
	var inOrder []byte
	for fr := 0; fr < fuzzFrames; fr++ {
		inOrder = append(inOrder, l0(fr), 33, l1(fr), 0, l2(fr), 1)
	}
	f.Add(inOrder)
	// Reordered layer 0s: frame 0 arrives last and decodes at once.
	f.Add([]byte{l0(2), 0, l0(1), 5, l0(0), 20, l1(0), 0})
	// Gaps: frame 1 never gets layer 0, frame 3 only enhancement layers.
	f.Add([]byte{l0(0), 0, l1(1), 10, l0(2), 30, l1(3), 10, l2(3), 0, l0(4), 50, l0(5), 70})
	// A duplicate layer 0 before an early decode: the decode stops the
	// second timer; the first still fires later, as a no-op.
	f.Add([]byte{l0(0), 0, l0(0), 30, l0(1), 5, l0(2), 5, l0(3), 70})
	// A duplicate layer 0 with no early decode: the first, orphaned
	// timer decodes the frame and stops the second.
	f.Add([]byte{l0(0), 0, l1(0), 10, l0(0), 20, l0(5), 75})
	// A duplicate layer 0 after an early decode is discarded.
	f.Add([]byte{l0(0), 0, l0(1), 5, l0(2), 5, l0(0), 10, l0(0), 0})
	// Duplicates at one instant, deadlines coinciding with arrivals.
	f.Add([]byte{l0(0), 0, l0(0), 0, l0(1), 60, l0(1), 0, l0(2), 60, l2(2), 0})

	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 400 {
			return
		}
		cfg := Config{Duration: fuzzFrames * time.Second / 30, KeyframeInterval: fuzzKeyframes}
		loopA, loopB := sim.NewLoop(1), sim.NewLoop(1)
		log := &decodeLog{}
		tr := telemetry.New(log)
		tr.BindClock(loopA.Now)
		got := NewReceiver(loopA, cfg)
		got.SetTracer(tr)
		want := newRefReceiver(loopB, cfg)
		if len(got.frames) != fuzzFrames {
			t.Fatalf("%d frames, want %d", len(got.frames), fuzzFrames)
		}

		var at time.Duration
		for i := 0; i+1 < len(schedule); i += 2 {
			frame := int(schedule[i]) % fuzzFrames
			layer := int(schedule[i]) / fuzzFrames % Layers
			at += time.Duration(schedule[i+1]%80) * time.Millisecond
			sentAt := at / 2
			loopA.At(at, func() {
				got.onMessage(transport.Message{Data: &layerMsg{frame: frame, layer: layer}, SentAt: sentAt})
			})
			loopB.At(at, func() { want.onLayer(frame, layer) })
		}

		for step := 0; ; step++ {
			okA, okB := loopA.Step(), loopB.Step()
			state := func(l *sim.Loop, d []decodeRec) string {
				return fmt.Sprintf("now %v, %d events, %d pending, decodes %v", l.Now(), l.Events(), l.Pending(), d)
			}
			if okA != okB || loopA.Now() != loopB.Now() || loopA.Events() != loopB.Events() ||
				loopA.Pending() != loopB.Pending() || !slices.Equal(log.decodes, want.decodes) {
				t.Fatalf("step %d:\n got  %s\n want %s", step,
					state(loopA, log.decodes), state(loopB, want.decodes))
			}
			if !okA {
				break
			}
		}
		if got.Decoded != len(want.decodes) {
			t.Fatalf("Decoded = %d, reference decoded %d", got.Decoded, len(want.decodes))
		}
	})
}
