package main

import (
	"strings"

	"hvc/internal/channel"
	"hvc/internal/telemetry"
)

// counts is the counting telemetry.Sink: exact op counts at the layer
// boundaries, taken through the runners' public Tracer fields. It
// keeps no events.
type counts struct {
	enqueued, delivered, dropped int64
	// droppedQueue are the drops at entry: packets a full queue refused,
	// which were therefore never enqueued.
	droppedQueue               int64
	decisions, urllc           int64
	sends, acks, retransmits   int64
	rtos, cwndUpdates, appDone int64
}

func (c *counts) BeginRun(string) {}
func (c *counts) Close() error    { return nil }

func (c *counts) Event(ev telemetry.Event) {
	switch ev.Layer {
	case telemetry.LayerChannel:
		switch ev.Name {
		case telemetry.EvEnqueue:
			c.enqueued++
		case telemetry.EvDeliver:
			c.delivered++
		case telemetry.EvDrop:
			c.dropped++
			if ev.Detail == "queue" {
				c.droppedQueue++
			}
		}
	case telemetry.LayerSteering:
		if ev.Name == telemetry.EvDecision {
			c.decisions++
			if strings.Contains(ev.Channel, channel.NameURLLC) {
				c.urllc++
			}
		}
	case telemetry.LayerTransport:
		switch ev.Name {
		case telemetry.EvSend:
			c.sends++
		case telemetry.EvAck:
			c.acks++
		case telemetry.EvRetransmit:
			c.retransmits++
		case telemetry.EvRTO:
			c.rtos++
		}
	case telemetry.LayerCC:
		if ev.Name == telemetry.EvCwnd {
			c.cwndUpdates++
		}
	case telemetry.LayerApp:
		// Frames decoded, web objects done, pages complete.
		c.appDone++
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics renders the counts and their ratios under the per-layer
// names.
func (c *counts) metrics(out map[string]float64) {
	out["netem.enqueued"] = float64(c.enqueued)
	out["netem.delivered"] = float64(c.delivered)
	out["netem.dropped"] = float64(c.dropped)
	// Useful outcomes over attempts: delivered over offered.
	out["netem.deliver_ratio"] = ratio(c.delivered, c.enqueued+c.droppedQueue)
	out["steering.decisions"] = float64(c.decisions)
	out["steering.urllc_frac"] = ratio(c.urllc, c.decisions)
	out["transport.sends"] = float64(c.sends)
	out["transport.acks"] = float64(c.acks)
	out["transport.retransmits"] = float64(c.retransmits)
	out["transport.rtos"] = float64(c.rtos)
	out["transport.retx_ratio"] = ratio(c.retransmits, c.sends)
	out["cc.cwnd_updates"] = float64(c.cwndUpdates)
	out["app.completions"] = float64(c.appDone)
}

// violations counts the conservation guards the counts must satisfy:
// a link cannot deliver or lose in flight what it never accepted, and
// a sender cannot collect more acks than it made sends.
func (c *counts) violations() int {
	n := 0
	if c.enqueued < c.delivered+c.dropped-c.droppedQueue {
		n++
	}
	if c.acks > c.sends {
		n++
	}
	return n
}
