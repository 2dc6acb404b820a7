package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"hvc/internal/channel"
	"hvc/internal/invariant"
	"hvc/internal/sim"
	"hvc/internal/telemetry"
)

// Inject arms every window of spec against the channels of g on loop,
// scheduling the fault starts and ends in virtual time. It must be
// called before the loop advances past the earliest window (in
// practice: at construction time, like everything else). Faults apply
// to both directions of the target channel — a channel-level fault
// models a radio- or path-level event — with burst processes keeping
// independent per-direction Gilbert–Elliott state.
//
// Telemetry (nil tracer disables it): EvFaultStart/EvFaultEnd events
// on LayerFault with the kind in Detail and the window length in Dur,
// plus a fault_windows_total counter labeled by channel and kind.
//
// Every random draw comes from private streams derived from the loop
// seed, the clause index, and the direction, so injection never
// perturbs the loop's shared Rand or any other link's private stream.
func Inject(loop *sim.Loop, g *channel.Group, spec Spec, tr *telemetry.Tracer) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for i, ev := range spec.Events {
		ch := g.Get(ev.Channel)
		if ch == nil {
			return fmt.Errorf("fault: scenario names unknown channel %q", ev.Channel)
		}
		apply, clear := actions(loop, ch, ev, i)
		ev := ev
		start := func() {
			apply()
			if tr.Enabled() {
				tr.Emit(telemetry.Event{
					Layer: telemetry.LayerFault, Name: telemetry.EvFaultStart,
					Channel: ev.Channel, Detail: string(ev.Kind), Dur: ev.Dur,
				})
				tr.Count("fault_windows_total", 1, "channel", ev.Channel, "kind", string(ev.Kind))
			}
		}
		end := func() {
			clear()
			if invariant.Enabled() {
				checkRestored(ch, ev)
			}
			if tr.Enabled() {
				tr.Emit(telemetry.Event{
					Layer: telemetry.LayerFault, Name: telemetry.EvFaultEnd,
					Channel: ev.Channel, Detail: string(ev.Kind), Dur: ev.Dur,
				})
			}
		}
		for k := 0; k < ev.occurrences(); k++ {
			at := ev.At + time.Duration(k)*ev.Every
			loop.At(at, start)
			loop.At(at+ev.Dur, end)
		}
	}
	return nil
}

// actions builds the apply/clear pair for one clause. Burst processes
// are created once per clause and persist their chain state across
// repeated windows, like a fading channel revisited.
func actions(loop *sim.Loop, ch *channel.Channel, ev Event, clause int) (apply, clear func()) {
	switch ev.Kind {
	case Outage:
		return func() { ch.SetOutage(true) }, func() { ch.SetOutage(false) }
	case Burst:
		a := newGE(loop.Seed(), ev, clause, "a")
		b := newGE(loop.Seed(), ev, clause, "b")
		return func() {
				ch.SetLossFn(channel.A, a.drop)
				ch.SetLossFn(channel.B, b.drop)
			}, func() {
				ch.SetLossFn(channel.A, nil)
				ch.SetLossFn(channel.B, nil)
			}
	case Slump:
		return func() { ch.SetRateScale(ev.Factor) }, func() { ch.SetRateScale(1) }
	case Spike:
		return func() { ch.SetExtraDelay(ev.Delay) }, func() { ch.SetExtraDelay(0) }
	}
	panic(fmt.Sprintf("fault: unreachable kind %q after validation", ev.Kind))
}

// checkRestored asserts the window-restore invariant after a clause's
// end action: each fault kind owns one state slot per channel (the
// overlap rule Validate enforces), so the instant a window closes, its
// kind's slot must read nominal again. A failure here means two
// windows trampled each other's state — the channel would carry a
// phantom fault for the rest of the run.
func checkRestored(ch *channel.Channel, ev Event) {
	switch ev.Kind {
	case Outage:
		if ch.Down() {
			invariant.Failf("fault", "window-restore",
				"channel %q still down after outage window ended", ev.Channel)
		}
	case Burst:
		if ch.LossFnInstalled(channel.A) || ch.LossFnInstalled(channel.B) {
			invariant.Failf("fault", "window-restore",
				"channel %q still has a loss process after burst window ended", ev.Channel)
		}
	case Slump:
		if s := ch.RateScale(); s != 1 {
			invariant.Failf("fault", "window-restore",
				"channel %q rate scale %v after slump window ended", ev.Channel, s)
		}
	case Spike:
		if d := ch.ExtraDelay(); d != 0 {
			invariant.Failf("fault", "window-restore",
				"channel %q extra delay %v after spike window ended", ev.Channel, d)
		}
	}
}

// geProc is one direction's Gilbert–Elliott two-state loss chain: each
// packet first advances the state (good→bad with PGB, bad→good with
// PBG), then drops with the state's loss probability. The classic
// bursty-loss model ERRANT fits to measured RAN conditions.
type geProc struct {
	rng               *rand.Rand
	bad               bool
	pgb, pbg          float64
	lossBad, lossGood float64
}

func newGE(seed int64, ev Event, clause int, dir string) *geProc {
	h := fnv.New64a()
	fmt.Fprintf(h, "fault\x00%s\x00%s\x00%d", ev.Channel, dir, clause)
	return &geProc{
		rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		pgb: ev.PGB, pbg: ev.PBG,
		lossBad: ev.LossBad, lossGood: ev.LossGood,
	}
}

// drop advances the chain one packet and reports whether to drop it.
func (g *geProc) drop() bool {
	if g.bad {
		if g.rng.Float64() < g.pbg {
			g.bad = false
		}
	} else {
		if g.rng.Float64() < g.pgb {
			g.bad = true
		}
	}
	p := g.lossGood
	if g.bad {
		p = g.lossBad
	}
	return p > 0 && g.rng.Float64() < p
}
