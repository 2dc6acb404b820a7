package invariant

import (
	"errors"
	"strings"
	"testing"
)

func TestEnabledFollowsSwitch(t *testing.T) {
	defer SetEnabled(enabled)
	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() true after SetEnabled(false)")
	}
	SetEnabled(true)
	if Compiled && !Enabled() {
		t.Fatal("Enabled() false after SetEnabled(true) in a compiled-in build")
	}
}

func TestFailfPanicsWithViolation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Failf did not panic")
		}
		v, ok := r.(*Violation)
		if !ok {
			t.Fatalf("panic value %T, want *Violation", r)
		}
		if v.Layer != "netem" || v.Name != "conservation" {
			t.Fatalf("violation = %+v", v)
		}
		if want := "invariant violated: netem/conservation: link \"embb\": 3 != 4"; v.Error() != want {
			t.Fatalf("Error() = %q, want %q", v.Error(), want)
		}
	}()
	Failf("netem", "conservation", "link %q: %d != %d", "embb", 3, 4)
}

func TestViolationIsError(t *testing.T) {
	var err error = &Violation{Layer: "sim", Name: "monotonic-time", Detail: "t went backwards"}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatal("errors.As failed to extract *Violation")
	}
	if !strings.Contains(err.Error(), "monotonic-time") {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestBugSwitches(t *testing.T) {
	defer SetBug(BugDupDeliver, false)
	if BugEnabled(BugDupDeliver) {
		t.Fatal("seeded bug active by default")
	}
	SetBug(BugDupDeliver, true)
	if Compiled && !BugEnabled(BugDupDeliver) {
		t.Fatal("BugEnabled false after SetBug(true)")
	}
	SetBug(BugDupDeliver, false)
	if BugEnabled(BugDupDeliver) {
		t.Fatal("BugEnabled true after SetBug(false)")
	}
}

func TestFreshSwitch(t *testing.T) {
	defer SetFresh(false)
	if Fresh() {
		t.Fatal("fresh records by default")
	}
	SetFresh(true)
	if Fresh() != Compiled {
		t.Fatalf("Fresh() = %v after SetFresh(true), want %v", Fresh(), Compiled)
	}
}

func TestParseBug(t *testing.T) {
	b, err := ParseBug("dup-deliver")
	if err != nil || b != BugDupDeliver {
		t.Fatalf("ParseBug(dup-deliver) = %v, %v", b, err)
	}
	if _, err := ParseBug("no-such-bug"); err == nil {
		t.Fatal("ParseBug accepted an unknown name")
	}
}
