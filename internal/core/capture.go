package core

import (
	"fmt"
	"io"
	"time"

	"hvc/internal/channel"
	"hvc/internal/metrics"
	"hvc/internal/netem"
	"hvc/internal/sim"
)

// captureEvery is the cadence at which RunBulk samples the channels
// for BulkConfig.Capture.
const captureEvery = 100 * time.Millisecond

// A sampler periodically snapshots every channel of a group from both
// sides — queue occupancy, delivered bytes and drops per interval —
// with no hooks in the data path. It samples until stop or the end of
// the simulation.
type sampler struct {
	loop  *sim.Loop
	group *channel.Group
	every time.Duration

	timer    sim.Timer
	sampleFn func() // one closure, re-armed every interval
	stopped  bool

	queues map[sampleKey]*metrics.TimeSeries
	thru   map[sampleKey]*metrics.TimeSeries
	drops  map[sampleKey]*metrics.TimeSeries
	last   map[sampleKey]netem.Stats
}

type sampleKey struct {
	ch   string
	side channel.Side
}

// newSampler starts sampling g every interval, the first sample one
// interval from now.
func newSampler(loop *sim.Loop, g *channel.Group, every time.Duration) *sampler {
	if every <= 0 {
		panic("core: nonpositive sampling interval")
	}
	s := &sampler{
		loop:   loop,
		group:  g,
		every:  every,
		queues: make(map[sampleKey]*metrics.TimeSeries),
		thru:   make(map[sampleKey]*metrics.TimeSeries),
		drops:  make(map[sampleKey]*metrics.TimeSeries),
		last:   make(map[sampleKey]netem.Stats),
	}
	for _, ch := range g.All() {
		for _, side := range []channel.Side{channel.A, channel.B} {
			k := sampleKey{ch.Name(), side}
			s.queues[k] = &metrics.TimeSeries{}
			s.thru[k] = &metrics.TimeSeries{}
			s.drops[k] = &metrics.TimeSeries{}
		}
	}
	s.sampleFn = s.sample
	s.arm()
	return s
}

func (s *sampler) arm() {
	s.timer = s.loop.After(s.every, s.sampleFn)
}

func (s *sampler) sample() {
	if s.stopped {
		return
	}
	now := s.loop.Now()
	for _, ch := range s.group.All() {
		for _, side := range []channel.Side{channel.A, channel.B} {
			k := sampleKey{ch.Name(), side}
			s.queues[k].Add(now, float64(ch.QueuedBytes(side)))
			st := ch.Stats(side)
			prev := s.last[k]
			s.thru[k].Add(now, float64(st.BytesDelivered-prev.BytesDelivered))
			s.drops[k].Add(now, float64(st.DroppedQueue+st.DroppedRandom-prev.DroppedQueue-prev.DroppedRandom))
			s.last[k] = st
		}
	}
	s.arm()
}

// stop ends sampling; the recorded series stay readable.
func (s *sampler) stop() {
	s.stopped = true
	s.timer.Stop()
}

// writeCSV emits every series as long-form CSV,
// t_ms,channel,side,queue_bytes,delivered_bytes,drops, in group order,
// then side, then time.
func (s *sampler) writeCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_ms,channel,side,queue_bytes,delivered_bytes,drops"); err != nil {
		return err
	}
	for _, ch := range s.group.All() {
		for _, side := range []channel.Side{channel.A, channel.B} {
			k := sampleKey{ch.Name(), side}
			q, d, dr := s.queues[k].Points(), s.thru[k].Points(), s.drops[k].Points()
			for i := range q {
				_, err := fmt.Fprintf(w, "%d,%s,%s,%.0f,%.0f,%.0f\n",
					q[i].At.Milliseconds(), ch.Name(), side, q[i].Value, d[i].Value, dr[i].Value)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}
