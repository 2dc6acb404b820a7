package transport

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
	"hvc/internal/packet"
	"hvc/internal/sim"
	"hvc/internal/steering"
)

// FuzzRangeSetOps drives the SACK range set with an arbitrary script
// of insertions, checking the structural invariants after each step.
func FuzzRangeSetOps(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{10, 10, 10, 0, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		var r rangeSet
		covered := map[uint64]bool{}
		for i := 0; i+1 < len(script); i += 2 {
			lo, hi := uint64(script[i]), uint64(script[i])+uint64(script[i+1]%16)
			var expect uint64
			for v := lo; v <= hi; v++ {
				if !covered[v] {
					expect++
					covered[v] = true
				}
			}
			if got := r.addRange(lo, hi); got != expect {
				t.Fatalf("addRange(%d,%d) newly=%d want %d", lo, hi, got, expect)
			}
			for j, rg := range r.rs {
				if rg.hi < rg.lo {
					t.Fatalf("inverted range %+v", rg)
				}
				if j > 0 && rg.lo <= r.rs[j-1].hi+1 {
					t.Fatalf("unmerged adjacency at %d: %v", j, r.rs)
				}
			}
		}
		for v := range covered {
			if !r.contains(v) {
				t.Fatalf("lost value %d", v)
			}
		}
	})
}

// linearAck is the single-pass merge-join that resolved acks before
// the indexed resolution (ackRanges) replaced it, kept verbatim as the
// oracle: it walks and rewrites every outstanding record on every ack.
// It predates subflows, so it settles the connection's totals only.
func linearAck(c *Conn, ranges []seqRange) (newlyBytes int, newest *chunk) {
	c.acked = c.acked[:0]
	ri := 0
	remaining := c.sentOrder[:0]
	for _, ch := range c.sentOrder {
		for ri < len(ranges) && ranges[ri].hi < ch.seq {
			ri++
		}
		if ri == len(ranges) || ch.seq < ranges[ri].lo {
			remaining = append(remaining, ch)
			continue
		}
		c.acked = append(c.acked, ch)
		c.bytesInFlight -= ch.size
		c.delivered += int64(ch.size)
		newlyBytes += ch.size
		c.stats.BytesAcked += int64(ch.size)
		for _, cp := range ch.copies {
			if cp.idx > c.ackedIndex[cp.id] {
				c.ackedIndex[cp.id] = cp.idx
			}
		}
		newest = ch
	}
	c.sentOrder = remaining
	return newlyBytes, newest
}

// ackScript writes a FuzzAckResolve input: a flight of nRec consecutive
// packets from seq 1001 up, and ranges given as {distance from the
// previous range's start, length − 1}, the first measured from
// 1000 − below.
func ackScript(nRec, below byte, ranges ...[2]byte) []byte {
	script := append([]byte{nRec, below}, make([]byte, nRec)...)
	for _, rg := range ranges {
		script = append(script, rg[0], rg[1])
	}
	return script
}

// FuzzAckResolve checks the indexed ack resolution against the linear
// merge-join on arbitrary flights and SACK lists. The script's first
// byte sizes the flight and the second sets how far below it the first
// range starts; then one byte per record (seq gap, carrying channels)
// and two per range (distance from the previous range's start — zero
// repeats it — and length), so ranges ascend by lo and, stretched to the
// previous range's end where they would stop short of it, by hi — the
// order any list of disjoint ranges has, and all resolveAcked asks —
// but may repeat, overlap, fall in holes, or lie wholly below, above or
// across the flight. A final odd byte stretches the last range to the
// top of the sequence space.
func FuzzAckResolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 9})                               // one range over the whole flight
	f.Add([]byte{8, 0, 0, 1, 0, 2, 0, 0, 1, 0, 0, 1, 0, 1, 3, 0, 3, 0}) // holes, a duplicate range
	f.Add([]byte{3, 9, 0, 0, 0, 0, 2, 1, 1})                            // wholly below the flight: pure duplicate
	f.Add([]byte{5, 0, 3, 3, 3, 3, 3, 40, 5, 40, 5, 1})                 // above the flight, then to the top
	f.Add([]byte{16, 2, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 2, 0, 5, 9, 3, 1})
	// A receiver's history: maxAckRanges ranges of which none, one, all
	// but one and all lie below the flight (seqs 1001–1064). run is n
	// ranges two wide and one apart.
	run := func(n int) (rs [][2]byte) {
		for len(rs) < n {
			rs = append(rs, [2]byte{3, 1})
		}
		return rs
	}
	f.Add(ackScript(64, 2, run(maxAckRanges)...))                                  // 1001–1002, 1004–1005, …: none below
	f.Add(ackScript(64, 10, append([][2]byte{{0, 0}, {11, 1}}, run(30)...)...))    // 990, then 31 from 1001 up
	f.Add(ackScript(64, 100, append(run(31), [2]byte{47, 5})...))                  // 903–904 … 993–994, then 1040–1045
	f.Add(ackScript(64, 200, run(maxAckRanges)...))                                // all 32 below: a pure duplicate
	f.Add(ackScript(64, 5, [2]byte{0, 10}))                                        // 995–1005 straddles the oldest packet
	f.Add(ackScript(64, 100, append(run(30), [2]byte{10, 23}, [2]byte{30, 2})...)) // 30 below, 1000–1023 straddling, 1030–1032 inside
	f.Add(ackScript(0, 100, run(maxAckRanges)...))                                 // an empty flight
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		nRec, below := next(), next()

		// A flight with holes over two channels, shared by both sides
		// (neither mutates the records).
		const base = 1000
		got := bareConn(0) // the records below are stamped free, as flow 0 holds them
		got.sentIndex, got.ackedIndex = make([]int64, 2), make([]int64, 2)
		got.subs = got.sub0[:]
		sf := &got.subs[0]
		seq := uint64(base)
		for i := 0; i < nRec; i++ {
			b := next()
			seq += 1 + uint64(b%4)
			ch := &chunk{seq: seq, size: 100 + b, sub: sf}
			ch.copies = ch.inl[:0]
			for id := 0; id < 2; id++ {
				if id == 0 && b&4 == 0 || id == 1 && b&8 != 0 {
					got.sentIndex[id]++
					ch.copies = append(ch.copies, chanCopy{id, got.sentIndex[id]})
				}
			}
			got.bytesInFlight += ch.size
			sf.inflight += ch.size
			got.appendSent(ch)
		}
		want := bareConn(0)
		want.sentOrder = append([]*chunk(nil), got.sentOrder...)
		want.ackedIndex, want.bytesInFlight = make([]int64, 2), got.bytesInFlight

		var ranges []seqRange
		lo, hi := uint64(base-below), uint64(0)
		for len(script) >= 2 && len(ranges) < 40 {
			lo += uint64(next() % 48)
			hi = max(hi, lo+uint64(next()%24))
			ranges = append(ranges, seqRange{lo, hi})
		}
		if next()%2 == 1 && len(ranges) > 0 {
			ranges[len(ranges)-1].hi = math.MaxUint64
		}

		backing := got.sentOrder
		gotNewest := got.ackRanges(ranges)
		wantBytes, wantNewest := linearAck(want, ranges)

		if sf.ackBytes != wantBytes || gotNewest != wantNewest || sf.ackNewest != wantNewest {
			t.Fatalf("ackRanges = (%d, %p, subflow's newest %p), linear = (%d, %p)",
				sf.ackBytes, gotNewest, sf.ackNewest, wantBytes, wantNewest)
		}
		if !slices.Equal(got.acked, want.acked) {
			t.Fatalf("acked records differ: %d vs %d, or their order", len(got.acked), len(want.acked))
		}
		if !slices.Equal(got.sentOrder, want.sentOrder) {
			t.Fatalf("remaining flight differs: %d vs %d records, or their order", len(got.sentOrder), len(want.sentOrder))
		}
		if !slices.Equal(got.ackedIndex, want.ackedIndex) || got.bytesInFlight != want.bytesInFlight ||
			sf.inflight != want.bytesInFlight || got.delivered != want.delivered || got.stats != want.stats {
			t.Fatalf("accounting differs: acked index %v vs %v, in flight %d vs %d",
				got.ackedIndex, want.ackedIndex, got.bytesInFlight, want.bytesInFlight)
		}
		// The flight stays inside its old backing array, and every slot
		// it vacated is cleared.
		live := 0
		for i := range backing {
			if len(got.sentOrder) > 0 && &backing[i] == &got.sentOrder[0] {
				live = len(got.sentOrder)
			}
			if live > 0 {
				live--
			} else if backing[i] != nil {
				t.Fatalf("slot %d of %d outside the flight still holds a record", i, len(backing))
			}
		}
		if len(got.sentOrder) > 0 && &got.sentOrder[len(got.sentOrder)-1] != &backing[len(backing)-1] &&
			&got.sentOrder[0] != &backing[0] {
			t.Fatalf("flight of %d is anchored at neither end of its old %d-slot span", len(got.sentOrder), len(backing))
		}
	})
}

// arenaProgram runs a script of dials, sends, and closes over one lossy
// channel and returns everything observable: each delivery with its
// virtual time, every connection's final Stats, and the loop's event
// count. With private set, every connection gets an arena of its own —
// records scoped to the connection, as they were before the endpoint
// lent them — instead of borrowing from its endpoint's.
func arenaProgram(script []byte, private bool) (log []string) {
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	loop := sim.NewLoop(1)
	ch := lossyBothWays(loop, float64(next()%4)*0.05)
	g := channel.NewGroup(ch)
	client, server := NewEndpoint(loop, g, channel.A), NewEndpoint(loop, g, channel.B)
	cfg := func() Config {
		return Config{CC: cc.NewCubic(), Steer: steering.NewSingle(ch), MsgTimeout: 300 * time.Millisecond}
	}
	var conns []*Conn // the client sides, in dial order
	adopt := func(c *Conn) {
		if private {
			c.rec = &arena{}
			c.sched.rec = c.rec
		}
		c.OnMessage(func(c *Conn, m Message) {
			log = append(log, fmt.Sprintf("%v flow %d client %v: message %d, %d bytes, sent %v",
				loop.Now(), c.Flow(), c.client, m.ID, m.Size, m.SentAt))
			if reply, ok := m.Data.(int); ok && !c.closed {
				c.SendMessage(m.Stream, m.Priority, reply, nil)
			}
		})
	}
	accepted := map[packet.FlowID]*Conn{}
	server.Listen(cfg, func(c *Conn) {
		accepted[c.Flow()] = c
		adopt(c)
	})

	var at time.Duration
	for ops := 0; len(script) > 0 && ops < 64; ops++ {
		op, arg := next(), next()
		at += time.Duration(op>>2%8) * 5 * time.Millisecond
		loop.At(at, func() {
			if op%4 == 0 && len(conns) < 6 {
				c := cfg()
				c.Unreliable = arg%2 == 1
				conns = append(conns, client.Dial(c))
				adopt(conns[len(conns)-1])
			}
			if len(conns) == 0 {
				return
			}
			c := conns[arg%len(conns)]
			switch {
			case op%4 == 3:
				c.Close()
				if peer := accepted[c.Flow()]; peer != nil && arg&8 != 0 {
					peer.Close()
				}
			case !c.closed:
				// A request: the peer answers with arg·100 bytes.
				c.SendMessage(c.NewStream(), packet.Priority(arg%3), 1+op*40, 1+arg*100)
			}
		})
	}
	// Not Run: a server whose peer closed retransmits its tail forever.
	loop.RunUntil(at + 5*time.Second)

	for _, c := range conns {
		log = append(log, fmt.Sprintf("flow %d client: %+v", c.Flow(), c.Stats()))
		if peer := accepted[c.Flow()]; peer != nil {
			log = append(log, fmt.Sprintf("flow %d server: %+v", c.Flow(), peer.Stats()))
		}
	}
	return append(log, fmt.Sprint(loop.Events(), " events"))
}

// FuzzSharedArenaVsPrivate holds the endpoint-scoped record arena to
// being unobservable: whichever connection a record served last, and
// whatever a Close handed back, the program delivers the same messages
// at the same virtual times with the same Stats as when every
// connection recycles only its own records. The owner invariants are
// armed (TestMain), so a record reaching the wrong flow fails here too.
func FuzzSharedArenaVsPrivate(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 9, 8, 1, 17, 2, 3, 0})                             // one reliable request/response, then close
	f.Add([]byte{2, 0, 1, 6, 200, 5, 100, 0, 2, 30, 1, 3, 1, 6, 150, 0, 8})     // lossy: reliable and unreliable side by side, close mid-flight
	f.Add([]byte{1, 0, 0, 40, 7, 3, 8, 0, 0, 41, 9, 3, 9, 0, 0, 42, 11, 3, 10}) // dial, use, close both ends, again
	f.Add([]byte{3, 0, 1, 255, 255, 255, 254, 7, 9, 3, 1, 0, 3, 255, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 160 {
			script = script[:160]
		}
		shared, own := arenaProgram(script, false), arenaProgram(script, true)
		if !slices.Equal(shared, own) {
			for i := range shared {
				if i >= len(own) || shared[i] != own[i] {
					t.Fatalf("endpoint arena and private arenas diverge at line %d of %d/%d:\n%s\n%s",
						i, len(shared), len(own), shared[i], append(own, "(nothing)")[i])
				}
			}
			t.Fatalf("private arenas logged %d extra lines: %s", len(own)-len(shared), own[len(shared)])
		}
	})
}
