package transport

import (
	"testing"
	"time"

	"hvc/internal/cc"
	"hvc/internal/channel"
)

// Karn-style audit, pinned: retransmissions carry fresh sequence
// numbers (sendChunk assigns c.nextSeq++ per transmission) and requeue
// removes the original transmission's tracking record from sentOrder,
// so an ack that arrives for the *original* seq after a retransmit
// matches nothing in the merge-join and takes the pure-duplicate early
// return — it must not feed srtt/rttvar (no negative or
// cross-attributed samples), nor double-count delivered bytes, nor
// move largestAcked. The test replays exactly that sequence against
// both subflow sets — one steered subflow, one pinned subflow per
// channel — and fails if any estimator or counter moves, on the
// connection or on any subflow.

func TestLateAckAfterRetransmitIgnored(t *testing.T) {
	for _, mode := range []struct {
		name   string
		seed   int64
		client func(*world) Config
		server func(*world) func() Config
	}{
		{"single-path", 51,
			func(w *world) Config { return Config{CC: cc.NewCubic(), Steer: w.dchannel(channel.A)} },
			serverCfg},
		{"multipath", 52,
			func(*world) Config { return multipathCfg() },
			func(*world) func() Config { return multipathCfg }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			w := newWorld(mode.seed)
			var got []Message
			w.listen(mode.server(w), &got)
			c := w.client.Dial(mode.client(w))
			const size = 2 << 20
			c.SendMessage(c.NewStream(), 0, size, nil)
			w.loop.RunUntil(300 * time.Millisecond)

			if len(c.sentOrder) == 0 {
				t.Fatal("nothing in flight at 300ms")
			}
			lo := c.sentOrder[0].seq
			hi := c.sentOrder[len(c.sentOrder)-1].seq

			// Timeout: every in-flight packet is requeued and retransmitted
			// under fresh sequence numbers.
			c.onRTO()
			if c.stats.Retransmits == 0 {
				t.Fatal("RTO did not requeue anything")
			}
			for _, info := range c.sentOrder {
				if info.seq <= hi {
					t.Fatalf("retransmission reused old seq %d (<= %d)", info.seq, hi)
				}
			}

			srtt, rttvar := c.srtt, c.rttvar
			bif := c.bytesInFlight
			subs := append([]subflow(nil), c.subs...)
			acked := c.stats.BytesAcked
			delivered := c.delivered
			largest := c.largestAcked

			// The network finally delivers the ack for the original
			// transmissions.
			c.handleAck(nil, &ackPayload{ranges: []seqRange{{lo: lo, hi: hi}}})

			if c.srtt != srtt || c.rttvar != rttvar {
				t.Fatalf("late ack moved RTT estimators: srtt %v->%v rttvar %v->%v",
					srtt, c.srtt, rttvar, c.rttvar)
			}
			if c.bytesInFlight != bif {
				t.Fatalf("late ack changed bytesInFlight %d->%d", bif, c.bytesInFlight)
			}
			for i, was := range subs {
				if sf := c.subs[i]; sf.srtt != was.srtt || sf.inflight != was.inflight {
					t.Fatalf("late ack touched subflow %q: srtt %v->%v inflight %d->%d",
						sf.name, was.srtt, sf.srtt, was.inflight, sf.inflight)
				}
			}
			if c.stats.BytesAcked != acked || c.delivered != delivered {
				t.Fatalf("late ack double-counted delivery: acked %d->%d delivered %d->%d",
					acked, c.stats.BytesAcked, delivered, c.delivered)
			}
			if c.largestAcked != largest {
				t.Fatalf("late ack moved largestAcked %d->%d", largest, c.largestAcked)
			}
			if c.srtt < 0 || c.rttvar < 0 {
				t.Fatalf("negative estimator: srtt=%v rttvar=%v", c.srtt, c.rttvar)
			}

			// The transfer still completes, exactly once.
			w.loop.RunUntil(30 * time.Second)
			if len(got) != 1 || got[0].Size != size {
				t.Fatalf("transfer after spurious ack: %v", got)
			}
		})
	}
}
