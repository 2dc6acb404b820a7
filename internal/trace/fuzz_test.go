package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzReadCSV exercises the trace parser with arbitrary input: it must
// never panic, and anything it accepts must round-trip through
// WriteCSV and parse to the same samples.
func FuzzReadCSV(f *testing.F) {
	f.Add("t_ms,rtt_ms,rate_mbps\n0,10,5\n")
	f.Add("# trace x\n0,1,1\n100,2,0\n")
	f.Add("")
	f.Add("0,10")
	f.Add("a,b,c\n")
	f.Add("-5,10,5\n")
	f.Add("0,1e300,1e300\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return // rejected: fine, as long as no panic
		}
		if len(tr.Samples) == 0 {
			t.Fatal("accepted trace with no samples")
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of accepted trace: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output: %v", err)
		}
		if len(back.Samples) != len(tr.Samples) {
			t.Fatalf("round-trip lost samples: %d -> %d", len(tr.Samples), len(back.Samples))
		}
	})
}

// FuzzTraceAt checks that At, NextChange and Segment never panic for
// arbitrary query times, that NextChange makes forward progress, and
// that Segment is the pair of them from one search — on a generated
// trace (shape 0), on one clipped to a few samples so that most queries
// land on the sample that wraps around (shape 1), and on a constant one
// (shape 2).
func FuzzTraceAt(f *testing.F) {
	f.Add(int64(1), uint32(0), uint8(0))
	f.Add(int64(2), uint32(1_000_000), uint8(0))
	f.Add(int64(3), uint32(4_999), uint8(0)) // the last sample of the first repetition
	f.Add(int64(3), uint32(5_000), uint8(0)) // the first of the second
	f.Add(int64(4), uint32(299), uint8(1))
	f.Add(int64(4), uint32(300), uint8(1))
	f.Add(int64(5), uint32(123_456), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, ms uint32, shape uint8) {
		tr := LowbandDriving(seed, 5*time.Second)
		switch shape % 3 {
		case 1:
			tr = tr.Clip(300 * time.Millisecond)
		case 2:
			tr = Constant("c", tr.Samples[0].RTT, tr.Samples[0].Rate)
		}
		now := time.Duration(ms) * time.Millisecond
		at := tr.At(now)
		next := tr.NextChange(now)
		if next <= now {
			t.Fatalf("NextChange(%v) = %v did not advance", now, next)
		}
		if s, until := tr.Segment(now); s != at || until != next {
			t.Fatalf("Segment(%v) = %+v until %v, want At's %+v and NextChange's %v", now, s, until, at, next)
		}
		// The sample holds to the end of its segment and no further.
		if last := tr.At(next - 1); last != at {
			t.Fatalf("At(%v) = %+v, but the segment from %v holds %+v until %v", next-1, last, now, at, next)
		}
		if len(tr.Samples) > 1 {
			if s, _ := tr.Segment(next); s.At == at.At {
				t.Fatalf("Segment(%v) is still the sample at offset %v", next, at.At)
			}
		}
	})
}
