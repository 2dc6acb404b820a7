package trace

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestConstantAt(t *testing.T) {
	tr := Constant("c", 5*time.Millisecond, 2e6)
	for _, at := range []time.Duration{0, time.Second, time.Hour} {
		s := tr.At(at)
		if s.RTT != 5*time.Millisecond || s.Rate != 2e6 {
			t.Fatalf("At(%v) = %+v", at, s)
		}
	}
}

func TestAtEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At on empty trace should panic")
		}
	}()
	(&Trace{Name: "empty"}).At(0)
}

func TestAtSelectsEnclosingSample(t *testing.T) {
	tr := &Trace{Name: "x", Samples: []Sample{
		{At: 0, RTT: 10 * time.Millisecond, Rate: 1e6},
		{At: 100 * time.Millisecond, RTT: 20 * time.Millisecond, Rate: 2e6},
		{At: 200 * time.Millisecond, RTT: 30 * time.Millisecond, Rate: 3e6},
	}}
	cases := []struct {
		at   time.Duration
		want time.Duration
	}{
		{0, 10 * time.Millisecond},
		{99 * time.Millisecond, 10 * time.Millisecond},
		{100 * time.Millisecond, 20 * time.Millisecond},
		{250 * time.Millisecond, 30 * time.Millisecond},
	}
	for _, c := range cases {
		if got := tr.At(c.at).RTT; got != c.want {
			t.Errorf("At(%v).RTT = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestAtWrapsAround(t *testing.T) {
	tr := &Trace{Name: "x", Samples: []Sample{
		{At: 0, RTT: 10 * time.Millisecond, Rate: 1e6},
		{At: 100 * time.Millisecond, RTT: 20 * time.Millisecond, Rate: 2e6},
	}}
	if d := tr.Duration(); d != 200*time.Millisecond {
		t.Fatalf("Duration = %v, want 200ms", d)
	}
	if got := tr.At(210 * time.Millisecond).RTT; got != 10*time.Millisecond {
		t.Fatalf("wrapped At = %v, want first sample", got)
	}
	if got := tr.At(310 * time.Millisecond).RTT; got != 20*time.Millisecond {
		t.Fatalf("wrapped At = %v, want second sample", got)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := LowbandDriving(1, 30*time.Second)
	b := LowbandDriving(1, 30*time.Second)
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("same seed gave different lengths")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	c := LowbandDriving(2, 30*time.Second)
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different traces")
	}
}

func TestLowbandStationaryCalibration(t *testing.T) {
	tr := LowbandStationary(1, 5*time.Minute)
	mean, p98 := tr.RTTStats()
	if mean < 40*time.Millisecond || mean > 70*time.Millisecond {
		t.Errorf("stationary mean RTT = %v, want ≈50ms", mean)
	}
	if p98 > 150*time.Millisecond {
		t.Errorf("stationary p98 RTT = %v, want modest", p98)
	}
}

func TestLowbandDrivingCalibration(t *testing.T) {
	tr := LowbandDriving(1, 5*time.Minute)
	mean, p98 := tr.RTTStats()
	// DChannel reports p98 ≈ 236 ms under driving; accept a band.
	if p98 < 150*time.Millisecond || p98 > 330*time.Millisecond {
		t.Errorf("driving p98 RTT = %v, want ≈236ms band", p98)
	}
	if mean < 50*time.Millisecond {
		t.Errorf("driving mean RTT = %v, implausibly low", mean)
	}
}

func TestMmWaveDrivingHasOutages(t *testing.T) {
	tr := MmWaveDriving(1, 5*time.Minute)
	outages := 0
	for _, s := range tr.Samples {
		if s.Rate == 0 {
			outages++
		}
	}
	if outages == 0 {
		t.Fatal("mmWave driving must contain outage samples")
	}
	frac := float64(outages) / float64(len(tr.Samples))
	if frac > 0.5 {
		t.Fatalf("outage fraction %.2f too high", frac)
	}
}

func TestGeneratedRTTsPositive(t *testing.T) {
	for _, tr := range []*Trace{
		LowbandStationary(3, time.Minute),
		LowbandDriving(3, time.Minute),
		MmWaveDriving(3, time.Minute),
	} {
		for i, s := range tr.Samples {
			if s.RTT < time.Millisecond {
				t.Errorf("%s sample %d: RTT %v < 1ms", tr.Name, i, s.RTT)
			}
			if s.Rate < 0 {
				t.Errorf("%s sample %d: negative rate", tr.Name, i)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := LowbandDriving(7, 10*time.Second)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name {
		t.Fatalf("name %q, want %q", got.Name, orig.Name)
	}
	if len(got.Samples) != len(orig.Samples) {
		t.Fatalf("len %d, want %d", len(got.Samples), len(orig.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i].At != orig.Samples[i].At {
			t.Fatalf("sample %d time %v, want %v", i, got.Samples[i].At, orig.Samples[i].At)
		}
		// RTT/rate go through decimal formatting; allow microsecond slack.
		drtt := got.Samples[i].RTT - orig.Samples[i].RTT
		if drtt < -time.Microsecond || drtt > time.Microsecond {
			t.Fatalf("sample %d RTT %v, want %v", i, got.Samples[i].RTT, orig.Samples[i].RTT)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",        // no samples
		"1,2\n",   // wrong field count
		"x,2,3\n", // bad time
		"1,x,3\n", // bad rtt
		"1,2,x\n", // bad rate
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", in)
		}
	}
}

func TestReadCSVSkipsComments(t *testing.T) {
	in := "# a comment\n# trace named\nt_ms,rtt_ms,rate_mbps\n0,10,5\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "named" || len(tr.Samples) != 1 {
		t.Fatalf("got %+v", tr)
	}
	if tr.Samples[0].RTT != 10*time.Millisecond || tr.Samples[0].Rate != 5e6 {
		t.Fatalf("sample = %+v", tr.Samples[0])
	}
}

// Property: At never panics for generated traces and always returns one
// of the trace's samples.
func TestAtReturnsMemberProperty(t *testing.T) {
	tr := LowbandDriving(5, 20*time.Second)
	members := make(map[Sample]bool, len(tr.Samples))
	for _, s := range tr.Samples {
		members[s] = true
	}
	f := func(ms uint32) bool {
		s := tr.At(time.Duration(ms) * time.Millisecond)
		return members[s]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTraceAt(b *testing.B) {
	tr := LowbandDriving(1, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.At(time.Duration(i) * time.Millisecond)
	}
}

func TestScale(t *testing.T) {
	tr := Constant("c", 10*time.Millisecond, 4e6)
	sc := tr.Scale(2, 0.5)
	s := sc.At(0)
	if s.RTT != 20*time.Millisecond || s.Rate != 2e6 {
		t.Fatalf("scaled sample %+v", s)
	}
	// Original untouched.
	if tr.At(0).RTT != 10*time.Millisecond {
		t.Fatal("Scale mutated the original")
	}
}

func TestScaleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rtt factor should panic")
		}
	}()
	Constant("c", time.Millisecond, 1e6).Scale(0, 1)
}

func TestClip(t *testing.T) {
	tr := LowbandDriving(1, 10*time.Second)
	c := tr.Clip(2 * time.Second)
	if c.Duration() > 2100*time.Millisecond {
		t.Fatalf("clip duration %v", c.Duration())
	}
	for _, s := range c.Samples {
		if s.At >= 2*time.Second {
			t.Fatalf("sample at %v beyond clip", s.At)
		}
	}
	// Clipping below one sample still yields a usable trace.
	tiny := tr.Clip(time.Nanosecond)
	if len(tiny.Samples) != 1 {
		t.Fatalf("tiny clip has %d samples", len(tiny.Samples))
	}
}

func TestOutageFractionAndMeanRate(t *testing.T) {
	tr := &Trace{Name: "x", Samples: []Sample{
		{At: 0, RTT: time.Millisecond, Rate: 4e6},
		{At: time.Second, RTT: time.Millisecond, Rate: 0},
	}}
	if got := tr.OutageFraction(); got != 0.5 {
		t.Fatalf("OutageFraction = %v", got)
	}
	if got := tr.MeanRate(); got != 2e6 {
		t.Fatalf("MeanRate = %v", got)
	}
	empty := &Trace{}
	if empty.OutageFraction() != 0 || empty.MeanRate() != 0 {
		t.Fatal("empty trace should report zeros")
	}
}

func TestLowbandWalkingBetweenStationaryAndDriving(t *testing.T) {
	st := LowbandStationary(1, 5*time.Minute)
	wk := LowbandWalking(1, 5*time.Minute)
	dr := LowbandDriving(1, 5*time.Minute)
	_, stP98 := st.RTTStats()
	_, wkP98 := wk.RTTStats()
	_, drP98 := dr.RTTStats()
	if !(stP98 <= wkP98 && wkP98 <= drP98) {
		t.Fatalf("p98 ordering violated: stationary %v, walking %v, driving %v",
			stP98, wkP98, drP98)
	}
}

// TestGenerateSizesSamplesOnce pins the synthesis cost: a synthetic
// trace holds exactly ⌈dur/step⌉ samples in one allocation, at the
// 32 s a fleet UE's video trace spans and the 5 min a web run spans.
// Three allocations remain — the random source, the Trace and its
// Samples — with no growth steps among them.
func TestGenerateSizesSamplesOnce(t *testing.T) {
	gens := []struct {
		name string
		gen  func(int64, time.Duration) *Trace
	}{
		{"lowband-stationary", LowbandStationary},
		{"lowband-walking", LowbandWalking},
		{"lowband-driving", LowbandDriving},
		{"mmwave-driving", MmWaveDriving},
	}
	// Settle the heap first: without it, a collection begun by the
	// package's earlier tests was measured adding an allocation per run.
	runtime.GC()
	for _, g := range gens {
		for _, dur := range []time.Duration{32 * time.Second, 5 * time.Minute, 5*time.Minute + 1} {
			tr := g.gen(1, dur)
			if want := int((dur + step - 1) / step); len(tr.Samples) != want || cap(tr.Samples) != want {
				t.Errorf("%s %v: len %d cap %d, want %d", g.name, dur, len(tr.Samples), cap(tr.Samples), want)
			}
			if raceEnabled {
				continue
			}
			if allocs := testing.AllocsPerRun(5, func() { g.gen(1, dur) }); allocs != 3 {
				t.Errorf("%s %v: %v allocations, want 3", g.name, dur, allocs)
			}
		}
	}
}
