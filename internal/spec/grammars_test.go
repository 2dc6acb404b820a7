package spec_test

import (
	"strings"
	"testing"

	"hvc/internal/arena"
	"hvc/internal/chaos"
	"hvc/internal/fault"
	"hvc/internal/fleet"
	"hvc/internal/sweep"
)

// errOf adapts a grammar's parser to the one thing this file looks at.
func errOf[T any](parse func(string) (T, error)) func(string) error {
	return func(s string) error {
		_, err := parse(s)
		return err
	}
}

// TestUnknownKeyErrors holds the five grammars built on the kernel to
// one error contract: an unknown key is reported under the grammar's
// own package prefix and lists every valid key in canonical order.
// Before the kernel, chaos and fault listed nothing.
func TestUnknownKeyErrors(t *testing.T) {
	for _, tc := range []struct {
		pkg, in string
		parse   func(string) error
		keys    string
	}{
		{"sweep", "exp=bulk zap=1",
			errOf(sweep.ParseSpec),
			"exp, cc, policy, trace, seeds, dur, pages, loads, fault, flows, mix, join, rttspread"},
		{"sweep", "exp=arena epoch=1s",
			errOf(sweep.ParseSpec),
			"exp, cc, policy, trace, seeds, dur, pages, loads, fault, flows, mix, join, rttspread"},
		{"fleet", "ues=5 zap=1",
			errOf(fleet.ParseSpec),
			"ues, seed, mix, cc, policy, trace, dur, pages, loads, stagger, fault"},
		{"arena", "flows=2 zap=1",
			errOf(arena.ParseSpec),
			"flows, mix, join, rttspread, seed, dur, epoch, policy, trace"},
		{"chaos", "exp=outage policy=dchannel seed=1 dur=2s zap=1",
			errOf(chaos.ParseJob),
			"exp, cc, policy, seed, dur, reliable, fault"},
		{"fault", "outage:ch=embb,at=0s,dur=1s,zap=1",
			errOf(fault.ParseSpec),
			"ch, at, dur, every, count"},
		// A key of another fault kind is unknown to this one, and the
		// list shows what this kind does take.
		{"fault", "burst:ch=embb,at=0s,dur=1s,factor=0.5",
			errOf(fault.ParseSpec),
			"ch, at, dur, every, count, pgb, pbg, loss, lossgood"},
		{"fault", "slump:ch=embb,at=0s,dur=1s,delay=10ms",
			errOf(fault.ParseSpec),
			"ch, at, dur, every, count, factor"},
		{"fault", "spike:ch=embb,at=0s,dur=1s,pgb=0.1",
			errOf(fault.ParseSpec),
			"ch, at, dur, every, count, delay"},
	} {
		err := tc.parse(tc.in)
		if err == nil {
			t.Errorf("%s: %q accepted", tc.pkg, tc.in)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, tc.pkg+": unknown key ") {
			t.Errorf("%s: %q: error %q does not start with the grammar's own unknown-key report", tc.pkg, tc.in, msg)
		}
		if !strings.Contains(msg, "(valid: "+tc.keys+")") {
			t.Errorf("%s: %q: error %q does not list the valid keys %q", tc.pkg, tc.in, msg, tc.keys)
		}
	}
}
