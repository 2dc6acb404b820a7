package transport

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeSetAddSingle(t *testing.T) {
	var r rangeSet
	if !r.add(5) {
		t.Fatal("first add should be new")
	}
	if r.add(5) {
		t.Fatal("second add should be duplicate")
	}
	if !r.contains(5) || r.contains(4) || r.contains(6) {
		t.Fatal("contains broken")
	}
	if r.max() != 5 {
		t.Fatalf("max = %d", r.max())
	}
}

func TestRangeSetMergesAdjacent(t *testing.T) {
	var r rangeSet
	r.add(1)
	r.add(3)
	if len(r.rs) != 2 {
		t.Fatalf("want 2 ranges, got %v", r.rs)
	}
	r.add(2) // bridges them
	if len(r.rs) != 1 || r.rs[0] != (seqRange{1, 3}) {
		t.Fatalf("merge failed: %v", r.rs)
	}
}

func TestRangeSetAddRangeCountsNew(t *testing.T) {
	var r rangeSet
	if n := r.addRange(10, 19); n != 10 {
		t.Fatalf("newly = %d, want 10", n)
	}
	if n := r.addRange(15, 24); n != 5 {
		t.Fatalf("overlap newly = %d, want 5", n)
	}
	if n := r.addRange(10, 24); n != 0 {
		t.Fatalf("subsumed newly = %d, want 0", n)
	}
	if !r.covered(10, 24) || r.covered(9, 24) || r.covered(10, 25) {
		t.Fatal("covered broken")
	}
}

func TestRangeSetInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted range should panic")
		}
	}()
	var r rangeSet
	r.addRange(5, 4)
}

func TestRangeSetEmpty(t *testing.T) {
	var r rangeSet
	if !r.empty() || r.max() != 0 || r.contains(0) {
		t.Fatal("zero value misbehaves")
	}
	if got := r.tail(5); len(got) != 0 {
		t.Fatalf("tail of empty = %v", got)
	}
}

func TestRangeSetTail(t *testing.T) {
	var r rangeSet
	for _, v := range []uint64{1, 3, 5, 7, 9} {
		r.add(v)
	}
	tl := r.tail(2)
	if len(tl) != 2 || tl[0] != (seqRange{7, 7}) || tl[1] != (seqRange{9, 9}) {
		t.Fatalf("tail = %v", tl)
	}
	// tail must be a copy.
	tl[0].lo = 100
	if r.rs[3].lo == 100 {
		t.Fatal("tail aliases internal storage")
	}
}

// Property: adding values in any order yields a set that contains
// exactly those values, with disjoint ascending non-adjacent ranges.
func TestRangeSetInvariants(t *testing.T) {
	f := func(vals []uint16) bool {
		var r rangeSet
		want := map[uint64]bool{}
		for _, v := range vals {
			r.add(uint64(v))
			want[uint64(v)] = true
		}
		// Structural invariants.
		for i, rg := range r.rs {
			if rg.hi < rg.lo {
				return false
			}
			if i > 0 && rg.lo <= r.rs[i-1].hi+1 {
				return false // overlapping or adjacent (should have merged)
			}
		}
		// Membership matches.
		for v := range want {
			if !r.contains(v) {
				return false
			}
		}
		var count uint64
		for _, rg := range r.rs {
			count += rg.hi - rg.lo + 1
		}
		return count == uint64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: addRange returns exactly the number of new values.
func TestRangeSetAddRangeCountProperty(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		var r rangeSet
		covered := map[uint64]bool{}
		for _, p := range pairs {
			lo, hi := uint64(p[0]), uint64(p[1])
			if hi < lo {
				lo, hi = hi, lo
			}
			var expect uint64
			for v := lo; v <= hi; v++ {
				if !covered[v] {
					expect++
					covered[v] = true
				}
			}
			if got := r.addRange(lo, hi); got != expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerPriorityAndFIFO(t *testing.T) {
	s := &scheduler{rec: &arena{}, flow: 2}
	s.push(&message{owner: 2, id: 1, prio: 3, size: 100})
	s.push(&message{owner: 2, id: 2, prio: 0, size: 100})
	s.push(&message{owner: 2, id: 3, prio: 3, size: 100})
	var order []uint64
	for {
		ch := s.next(false)
		if ch == nil {
			break
		}
		order = append(order, ch.frag.msgID)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 3 {
		t.Fatalf("order = %v, want [2 1 3]", order)
	}
	if !s.empty() {
		t.Fatal("scheduler should be empty")
	}
}

func TestSchedulerChunking(t *testing.T) {
	s := &scheduler{rec: &arena{}, flow: 2}
	s.push(&message{owner: 2, id: 1, prio: 0, size: 3000, data: "x"})
	var lens []int
	var lastData any
	for {
		ch := s.next(false)
		if ch == nil {
			break
		}
		lens = append(lens, ch.frag.length)
		lastData = ch.frag.data
	}
	if len(lens) != 3 || lens[0] != 1456 || lens[1] != 1456 || lens[2] != 88 {
		t.Fatalf("chunk lengths = %v", lens)
	}
	if lastData != "x" {
		t.Fatal("data must ride the final fragment")
	}
}

func TestSchedulerRetxBeforeFresh(t *testing.T) {
	s := &scheduler{rec: &arena{}, flow: 2}
	s.push(&message{owner: 2, id: 1, prio: 0, size: 100})
	s.retx.push(&chunk{owner: 2, frag: fragment{msgID: 99, length: 50}})
	first := s.next(false)
	if first.frag.msgID != 99 {
		t.Fatalf("retransmission should go first, got msg %d", first.frag.msgID)
	}
}
