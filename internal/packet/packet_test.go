package packet

import (
	"strings"
	"testing"
	"unsafe"

	"hvc/internal/invariant"
)

// The pool's mark sits in padding: a Packet is as large as it was
// without it.
func TestPacketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Packet{}); got != 112 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 112", got)
	}
}

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{Data, "data"},
		{Ack, "ack"},
		{Control, "control"},
		{Kind(9), "kind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestMsgEnd(t *testing.T) {
	p := Packet{MsgRemaining: 10}
	if p.MsgEnd() {
		t.Fatal("packet with remaining bytes should not be MsgEnd")
	}
	p.MsgRemaining = 0
	if !p.MsgEnd() {
		t.Fatal("packet with 0 remaining should be MsgEnd")
	}
}

func TestMTUBudget(t *testing.T) {
	if MaxPayload+HeaderBytes != 1500 {
		t.Fatalf("MaxPayload+HeaderBytes = %d, want 1500", MaxPayload+HeaderBytes)
	}
}

func TestIDGenUnique(t *testing.T) {
	var g IDGen
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := g.Next()
		if id == 0 {
			t.Fatal("IDs must be nonzero so the zero Packet is distinguishable")
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestStringMentionsKeyFields(t *testing.T) {
	p := Packet{ID: 7, Flow: 3, Seq: 42, Kind: Ack, Size: 44, Priority: 2, MsgID: 5}
	s := p.String()
	for _, want := range []string{"id=7", "flow=3", "seq=42", "ack", "44B", "prio=2", "msg=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// Parked payload boxes come back LIFO under the kind they were filed
// with, and never under another.
func TestPoolBoxesPerKind(t *testing.T) {
	var pl Pool
	if pl.GetBox(Data) != nil {
		t.Fatal("empty pool returned a box")
	}
	a, b, c := new(int), new(int), new(string)
	pl.PutBox(Data, a)
	pl.PutBox(Data, b)
	pl.PutBox(Ack, c)
	if got := pl.GetBox(Control); got != nil {
		t.Fatalf("GetBox(Control) = %v, want nil", got)
	}
	if got := pl.GetBox(Ack); got != c {
		t.Fatalf("GetBox(Ack) = %v, want the ack box", got)
	}
	if got := pl.GetBox(Data); got != b {
		t.Fatalf("GetBox(Data) = %v, want the last box parked", got)
	}
	if got := pl.GetBox(Data); got != a {
		t.Fatalf("GetBox(Data) = %v, want the first box parked", got)
	}
	if pl.GetBox(Data) != nil || pl.GetBox(Ack) != nil {
		t.Fatal("drained pool returned a box")
	}
}

// Retire moves only the free lists and shows scrub every payload on
// them once; Adopt, with checking on, shows check every payload once
// and puts the lists under another pool.
func TestPoolRetireAdopt(t *testing.T) {
	defer invariant.SetEnabled(invariant.Enabled())
	invariant.SetEnabled(true)
	var pl Pool
	out, a, b := pl.Get(), pl.Get(), pl.Get()
	a.Payload, b.Payload = "a-box", nil
	pl.Put(a)
	pl.Put(b)
	pl.PutBox(Ack, "parked")
	var scrubbed []any
	spare := pl.Retire(func(box any) { scrubbed = append(scrubbed, box) })
	if len(scrubbed) != 3 {
		t.Fatalf("Retire scrubbed %v; want the two free packets' payloads and the parked box", scrubbed)
	}
	if pl.Live() != 1 || len(pl.free) != 0 || pl.GetBox(Ack) != nil {
		t.Fatalf("retired pool: live %d, %d free, want the one packet still out and nothing free", pl.Live(), len(pl.free))
	}
	pl.Put(out)

	var next Pool
	checked := 0
	next.Adopt(&spare, func(any) { checked++ })
	if invariant.Compiled && checked != 3 {
		t.Fatalf("Adopt checked %d payloads, want 3", checked)
	}
	if p, q := next.Get(), next.Get(); p != b || q != a || next.GetBox(Ack) != "parked" {
		t.Fatal("Adopt did not hand over the retired packets and box")
	}
}
