// Package spec is the one implementation of the key=value token
// grammar behind the sweep, fleet and arena specs and the clauses of a
// fault scenario. (The sweep spec is also the line of one run, the form
// a chaos counterexample takes.) A grammar is an ordered table of
// Fields; Parse splits each token at its first '=', rejects malformed
// tokens, duplicate keys and unknown keys, hands every value to its
// field's typed setter, prefixes each error with the owning package,
// and reports which keys were present — so "omitted" and "explicitly
// zero" stay distinguishable. What a grammar keeps for itself is what
// differs between them: tokenising (whitespace, or commas inside a
// fault clause), defaults, cross-field rules and the canonical key
// order of its String.
package spec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A Field binds one key to the setter for its value kind. Build Fields
// with the kind constructors below; the table's order is the order an
// unknown-key error lists the valid keys in.
type Field struct {
	Key string
	set func(val string) error
}

// Parse applies tokens to fields and returns the set of keys present.
// Every error starts with "pkg: ".
func Parse(pkg string, tokens []string, fields []Field) (map[string]bool, error) {
	present := make(map[string]bool, len(tokens))
	for _, tok := range tokens {
		key, val, ok := strings.Cut(tok, "=")
		if !ok || val == "" {
			return nil, fmt.Errorf("%s: field %q is not key=value", pkg, tok)
		}
		if present[key] {
			return nil, fmt.Errorf("%s: duplicate key %q", pkg, key)
		}
		present[key] = true
		i := slices.IndexFunc(fields, func(f Field) bool { return f.Key == key })
		if i < 0 {
			valid := make([]string, len(fields))
			for j, f := range fields {
				valid[j] = f.Key
			}
			return nil, fmt.Errorf("%s: unknown key %q (valid: %s)", pkg, key, strings.Join(valid, ", "))
		}
		if err := fields[i].set(val); err != nil {
			return nil, fmt.Errorf("%s: %w", pkg, err)
		}
	}
	return present, nil
}

// Func is the escape hatch for a value only its grammar can read (the
// sweep seed range).
func Func(key string, set func(val string) error) Field { return Field{key, set} }

// scalar builds the Field of a kind that parses one value: parse
// reports whether val is acceptable, and what completes the sentence
// `key "val" …` when it is not.
func scalar[T any](key string, dst *T, what string, parse func(val string) (T, bool)) Field {
	return Field{key, func(val string) error {
		v, ok := parse(val)
		if !ok {
			return fmt.Errorf("%s %q %s", key, val, what)
		}
		*dst = v
		return nil
	}}
}

// String accepts any non-empty value; the grammar validates names.
func String(key string, dst *string) Field {
	return scalar(key, dst, "", func(val string) (string, bool) { return val, true })
}

// Int accepts a positive integer.
func Int(key string, dst *int) Field {
	return scalar(key, dst, "is not a positive integer", func(val string) (int, bool) {
		n, err := strconv.Atoi(val)
		return n, err == nil && n > 0
	})
}

// Int64 accepts any 64-bit integer (seeds).
func Int64(key string, dst *int64) Field {
	return scalar(key, dst, "is not an integer", func(val string) (int64, bool) {
		n, err := strconv.ParseInt(val, 10, 64)
		return n, err == nil
	})
}

// Bool accepts what strconv.ParseBool does.
func Bool(key string, dst *bool) Field {
	return scalar(key, dst, "is not a boolean", func(val string) (bool, bool) {
		b, err := strconv.ParseBool(val)
		return b, err == nil
	})
}

// durIn is the one duration check; what words the rejection.
func durIn(key string, dst *time.Duration, min, max time.Duration, what string) Field {
	return scalar(key, dst, what, func(val string) (time.Duration, bool) {
		d, err := time.ParseDuration(val)
		return d, err == nil && d >= min && d <= max
	})
}

// Dur accepts a non-negative Go duration: a key whose zero is a real
// value.
func Dur(key string, dst *time.Duration) Field {
	return durIn(key, dst, 0, math.MaxInt64, "is not a non-negative duration")
}

// PosDur accepts a positive duration, for a key whose zero field means
// "use the default": an explicit zero is rejected rather than silently
// replaced. Junk and negative values fail as they do for Dur.
func PosDur(key string, dst *time.Duration) Field {
	dur := Dur(key, dst)
	return Field{key, func(val string) error {
		if err := dur.set(val); err != nil {
			return err
		}
		if *dst == 0 {
			return fmt.Errorf("%s %q is not a positive duration; omit the key for the default", key, val)
		}
		return nil
	}}
}

// DurIn accepts a duration in [min, max] (fault windows, which are
// bounded above so a typo cannot schedule past the horizon).
func DurIn(key string, dst *time.Duration, min, max time.Duration) Field {
	return durIn(key, dst, min, max, fmt.Sprintf("is not a duration in [%v,%v]", min, max))
}

// Prob accepts a probability in [0,1].
func Prob(key string, dst *float64) Field {
	return scalar(key, dst, "is not a probability in [0,1]", func(val string) (float64, bool) {
		p, err := strconv.ParseFloat(val, 64)
		return p, err == nil && p >= 0 && p <= 1
	})
}

// PosFloat accepts a positive number.
func PosFloat(key string, dst *float64) Field {
	return scalar(key, dst, "must be a positive number", func(val string) (float64, bool) {
		f, err := strconv.ParseFloat(val, 64)
		return f, err == nil && f > 0
	})
}

// List accepts a comma-separated list of unique non-empty strings.
func List(key string, dst *[]string) Field {
	return Field{key, func(val string) error {
		parts := strings.Split(val, ",")
		seen := make(map[string]bool, len(parts))
		for _, p := range parts {
			if p == "" {
				return fmt.Errorf("%s has an empty list element", key)
			}
			if seen[p] {
				return fmt.Errorf("%s lists %q twice", key, p)
			}
			seen[p] = true
		}
		*dst = parts
		return nil
	}}
}

// A Weighted is one entry of a weighted list: a name drawn in
// proportion to Weight.
type Weighted struct {
	Name   string
	Weight int
}

// Weights accepts a comma-separated list of unique name[:weight]
// entries, weight a positive integer defaulting to 1. noun says what
// the names are ("CCA", "app") in the empty-name error; the grammar
// validates the names themselves.
func Weights(key, noun string, dst *[]Weighted) Field {
	return Field{key, func(val string) error {
		var list []Weighted
		seen := map[string]bool{}
		for _, part := range strings.Split(val, ",") {
			name, weight, hasWeight := strings.Cut(part, ":")
			w := Weighted{Name: name, Weight: 1}
			if hasWeight {
				n, err := strconv.Atoi(weight)
				if err != nil || n < 1 {
					return fmt.Errorf("%s weight %q is not a positive integer", key, weight)
				}
				w.Weight = n
			}
			if name == "" {
				return fmt.Errorf("%s has an empty %s name", key, noun)
			}
			if seen[name] {
				return fmt.Errorf("%s lists %q twice", key, name)
			}
			seen[name] = true
			list = append(list, w)
		}
		*dst = list
		return nil
	}}
}

// WeightedString renders a weighted list canonically: name:weight,
// comma-separated, weights always explicit.
func WeightedString(list []Weighted) string {
	parts := make([]string, len(list))
	for i, w := range list {
		parts[i] = fmt.Sprintf("%s:%d", w.Name, w.Weight)
	}
	return strings.Join(parts, ",")
}

// Pick returns the name at position n of the weight-expanded list,
// wrapping around: {a:2,b:1} yields a,a,b,a,a,b,… — the one draw behind
// the arena's cyclic flow assignment and the fleet's hashed app choice.
func Pick(list []Weighted, n uint64) string {
	total := 0
	for _, w := range list {
		total += w.Weight
	}
	slot := int(n % uint64(total))
	for _, w := range list {
		if slot < w.Weight {
			return w.Name
		}
		slot -= w.Weight
	}
	return list[len(list)-1].Name // unreachable: weights sum to total
}

// Mix64 is the splitmix64 finalizer: a cheap bijective avalanche over
// uint64, the standard way to turn structured integers into
// independent-looking streams without allocating an RNG. The fleet
// hashes its per-UE draws with it, and the arena its per-flow seeds.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RoundTrip checks the contract every grammar's canonical form holds,
// shared by their tests and fuzz targets: v, a value parse accepted,
// renders to a String that parses back to a deeply equal value and
// renders to the same string again.
func RoundTrip[T fmt.Stringer](v T, parse func(string) (T, error)) error {
	canonical := v.String()
	back, err := parse(canonical)
	if err != nil {
		return fmt.Errorf("canonical form %q rejected: %v", canonical, err)
	}
	if !reflect.DeepEqual(back, v) {
		return fmt.Errorf("round trip through %q changed the value:\n in: %+v\nout: %+v", canonical, v, back)
	}
	if again := back.String(); again != canonical {
		return fmt.Errorf("canonical form not a fixed point: %q -> %q", canonical, again)
	}
	return nil
}
