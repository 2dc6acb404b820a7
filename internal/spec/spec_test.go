package spec

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// probe is a small grammar with one field of every kind, the subject
// of the kernel's own tests and of FuzzSpecKernel.
type probe struct {
	Name   string
	N      int
	Seed   int64
	On     bool
	Wait   time.Duration
	Len    time.Duration
	Window time.Duration
	P      float64
	Factor float64
	Tags   []string
	Mix    []Weighted
	Even   int
}

func (p *probe) fields() []Field {
	return []Field{
		String("name", &p.Name),
		Int("n", &p.N),
		Int64("seed", &p.Seed),
		Bool("on", &p.On),
		Dur("wait", &p.Wait),
		PosDur("len", &p.Len),
		DurIn("window", &p.Window, time.Millisecond, time.Hour),
		Prob("p", &p.P),
		PosFloat("factor", &p.Factor),
		List("tags", &p.Tags),
		Weights("mix", "thing", &p.Mix),
		Func("even", func(val string) error {
			if _, err := fmt.Sscanf(val, "%d", &p.Even); err != nil || p.Even%2 != 0 || fmt.Sprint(p.Even) != val {
				return fmt.Errorf("even %q is not an even integer", val)
			}
			return nil
		}),
	}
}

func parseProbe(s string) (probe, error) {
	var p probe
	_, err := Parse("probe", strings.Fields(s), p.fields())
	return p, err
}

// String renders every field, so a reparse must reproduce the value.
func (p probe) String() string {
	s := fmt.Sprintf("seed=%d on=%t wait=%s p=%g even=%d", p.Seed, p.On, p.Wait, p.P, p.Even)
	if p.N != 0 {
		s += fmt.Sprintf(" n=%d", p.N)
	}
	if p.Name != "" {
		s += " name=" + p.Name
	}
	if p.Len != 0 {
		s += fmt.Sprintf(" len=%s", p.Len)
	}
	if p.Window != 0 {
		s += fmt.Sprintf(" window=%s", p.Window)
	}
	if p.Factor != 0 {
		s += fmt.Sprintf(" factor=%g", p.Factor)
	}
	if p.Tags != nil {
		s += " tags=" + strings.Join(p.Tags, ",")
	}
	if p.Mix != nil {
		s += " mix=" + WeightedString(p.Mix)
	}
	return s
}

func TestParseStructure(t *testing.T) {
	var p probe
	present, err := Parse("probe", strings.Fields(" n=3\tmix=a:2,b  wait=0s "), p.fields())
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"n": true, "mix": true, "wait": true}; !reflect.DeepEqual(present, want) {
		t.Errorf("present = %v, want %v", present, want)
	}
	if p.N != 3 || p.Wait != 0 || !reflect.DeepEqual(p.Mix, []Weighted{{"a", 2}, {"b", 1}}) {
		t.Errorf("parsed %+v", p)
	}
	if got := WeightedString(p.Mix); got != "a:2,b:1" {
		t.Errorf("WeightedString = %q", got)
	}

	for _, tc := range []struct{ in, want string }{
		{"n", `probe: field "n" is not key=value`},
		{"n=", `probe: field "n=" is not key=value`},
		{"=3", `probe: unknown key "" (valid: name, n, seed, on, wait, len, window, p, factor, tags, mix, even)`},
		{"n=1 n=1", `probe: duplicate key "n"`},
		{"zap=1", `probe: unknown key "zap" (valid: name, n, seed, on, wait, len, window, p, factor, tags, mix, even)`},
		{"even=3", `probe: even "3" is not an even integer`},
	} {
		if _, err := parseProbe(tc.in); err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) = %v, want %s", tc.in, err, tc.want)
		}
	}
}

func TestKinds(t *testing.T) {
	for _, tc := range []struct {
		key     string
		accept  []string
		reject  []string
		message string
	}{
		{"name", []string{"x", "a=b", "né"}, nil, ""},
		{"n", []string{"1", "+7", "9223372036854775807"}, []string{"0", "-1", "1.5", "x", "9223372036854775808"}, "is not a positive integer"},
		{"seed", []string{"0", "-9223372036854775808"}, []string{"x", "1e3", "9223372036854775808"}, "is not an integer"},
		{"on", []string{"true", "0", "F"}, []string{"yes", "2"}, "is not a boolean"},
		{"wait", []string{"0s", "0", "1.5h", "1ns"}, []string{"-1ns", "5", "fast", "1d"}, "is not a non-negative duration"},
		{"len", []string{"1ns", "2m"}, []string{"-1s", "soon"}, "is not a non-negative duration"},
		{"len", nil, []string{"0s", "0", "0h0m"}, "is not a positive duration; omit the key for the default"},
		{"window", []string{"1ms", "1h"}, []string{"0s", "999us", "1h0m0.000000001s", "-1s", "x"}, "is not a duration in [1ms,1h0m0s]"},
		{"p", []string{"0", "1", "1e-300", "0.5"}, []string{"-0.1", "1.0000001", "NaN", "Inf", "x"}, "is not a probability in [0,1]"},
		{"factor", []string{"1e-300", "3", "+Inf"}, []string{"0", "-1", "NaN", "x"}, "must be a positive number"},
		{"tags", []string{"a", "a,b,c"}, []string{"a,,b", ",a", "a,"}, "has an empty list element"},
		{"tags", nil, []string{"a,b,a"}, `lists "a" twice`},
		{"mix", []string{"a", "a:3,b", "a:1,b:2"}, []string{":2", "a,,b", "a,:1"}, "has an empty thing name"},
		{"mix", nil, []string{"a:0", "a:-1", "a:x", "a:", "a:1:2"}, "is not a positive integer"},
		{"mix", nil, []string{"a,a", "a:1,b,a:2"}, `lists "a" twice`},
	} {
		for _, v := range tc.accept {
			if _, err := parseProbe(tc.key + "=" + v); err != nil {
				t.Errorf("%s=%s rejected: %v", tc.key, v, err)
			}
		}
		for _, v := range tc.reject {
			_, err := parseProbe(tc.key + "=" + v)
			if err == nil || !strings.HasPrefix(err.Error(), "probe: "+tc.key+" ") || !strings.Contains(err.Error(), tc.message) {
				t.Errorf("%s=%s: got %v, want probe: %s … %s", tc.key, v, err, tc.key, tc.message)
			}
		}
	}
}

func TestPick(t *testing.T) {
	mix := []Weighted{{"a", 2}, {"b", 1}, {"c", 3}}
	var got []string
	for n := uint64(0); n < 8; n++ {
		got = append(got, Pick(mix, n))
	}
	if want := "a a b c c c a a"; strings.Join(got, " ") != want {
		t.Errorf("Pick cycle = %v, want %s", got, want)
	}
	if Pick(mix, math.MaxUint64) != Pick(mix, math.MaxUint64%6) {
		t.Error("Pick does not reduce n modulo the total weight")
	}
}

// lossy is a value whose String drops a field: RoundTrip must notice.
type lossy struct{ A, B int }

func (l lossy) String() string { return fmt.Sprint(l.A) }

func TestRoundTripCatchesBrokenCanonicalForms(t *testing.T) {
	p, err := parseProbe("n=2 mix=a,b:3 tags=x,y len=1500ms p=0.25 on=1 even=-4")
	if err != nil {
		t.Fatal(err)
	}
	if err := RoundTrip(p, parseProbe); err != nil {
		t.Errorf("well-formed grammar: %v", err)
	}
	parseLossy := func(s string) (l lossy, err error) {
		_, err = fmt.Sscan(s, &l.A)
		return l, err
	}
	if err := RoundTrip(lossy{1, 2}, parseLossy); err == nil || !strings.Contains(err.Error(), "changed the value") {
		t.Errorf("lossy String: got %v", err)
	}
	if err := RoundTrip(lossy{1, 0}, func(string) (lossy, error) { return lossy{}, fmt.Errorf("no") }); err == nil {
		t.Error("rejected canonical form not reported")
	}
	if err := RoundTrip(lossy{1, 0}, func(string) (lossy, error) { return lossy{1, 0}, nil }); err != nil {
		t.Errorf("fixed point reported as broken: %v", err)
	}
}

// FuzzSpecKernel drives the kernel with arbitrary token lists against
// the probe grammar: it never panics; a token without '=' or with an
// empty value, a repeated key and a key outside the table are always
// rejected, under the grammar's prefix; and whatever it accepts renders
// to a form that reparses to the same value and is a fixed point.
func FuzzSpecKernel(f *testing.F) {
	f.Add("")
	f.Add("name=x n=3 seed=-1 on=true wait=0s len=2s window=5ms p=0.5 factor=2 tags=a,b mix=a:2,b even=4")
	f.Add("n=1 n=1")
	f.Add("zap=1")
	f.Add("n= =3 =")
	f.Add("p=NaN factor=NaN")
	f.Add("len=0s")
	f.Add("mix=:1,a: tags=,")
	f.Add("window=1h0m0.000000001s")
	f.Add("name==== even=+2")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := parseProbe(in)
		keys := map[string]bool{}
		for _, f := range new(probe).fields() {
			keys[f.Key] = true
		}
		seen := map[string]bool{}
		for _, tok := range strings.Fields(in) {
			key, val, ok := strings.Cut(tok, "=")
			if (!ok || val == "" || seen[key] || !keys[key]) && err == nil {
				t.Fatalf("%q accepted despite token %q", in, tok)
			}
			seen[key] = true
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "probe: ") {
				t.Fatalf("%q: error %q lacks the grammar's prefix", in, err)
			}
			return
		}
		if err := RoundTrip(p, parseProbe); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
	})
}

// TestMix64MatchesSplitmix64 pins Mix64 to the published splitmix64
// stream: seeded with 0, its outputs are Mix64 of successive multiples
// of the golden-ratio increment.
func TestMix64MatchesSplitmix64(t *testing.T) {
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := Mix64(uint64(i+1) * 0x9e3779b97f4a7c15); got != want {
			t.Errorf("splitmix64 output %d = %#x, want %#x", i, got, want)
		}
	}
}
