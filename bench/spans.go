package main

import (
	"sort"
	"strings"
	"time"
)

// spans is the in-memory boundary-span recorder. Spans aggregate by
// path ("rep/arena.call"): the recorder keeps an entry count and a
// total per path, not one record per entry, so wrapping millions of
// calls costs no memory. A nil *spans records nothing, which is how
// untraced children run the same workload code with tracing off.
type spans struct {
	agg   map[string]*spanAgg
	stack []string // paths of the open spans, outermost first
}

type spanAgg struct {
	count int64
	total time.Duration
}

// A spanRow is one aggregated span as dumped at exit.
type spanRow struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"` // path of the enclosing span
	Count  int64  `json:"count"`
	// TotalNs is wall time between begin and end; SelfNs is TotalNs
	// minus the TotalNs of the spans opened directly inside it.
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func newSpans() *spans { return &spans{agg: map[string]*spanAgg{}} }

func noop() {}

// begin opens a span inside the innermost open span and returns the
// function that closes it. Spans close in LIFO order.
func (s *spans) begin(name string) (end func()) {
	if s == nil {
		return noop
	}
	path := s.path(name)
	s.stack = append(s.stack, path)
	start := time.Now()
	return func() {
		d := time.Since(start)
		s.stack = s.stack[:len(s.stack)-1]
		s.record(path, 1, d)
	}
}

// add folds count entries totalling d into the span name under the
// innermost open span. Decorators that time millions of calls
// accumulate locally and add once.
func (s *spans) add(name string, count int64, d time.Duration) {
	if s != nil {
		s.record(s.path(name), count, d)
	}
}

func (s *spans) path(name string) string {
	if n := len(s.stack); n > 0 {
		return s.stack[n-1] + "/" + name
	}
	return name
}

func (s *spans) record(path string, count int64, d time.Duration) {
	a := s.agg[path]
	if a == nil {
		a = &spanAgg{}
		s.agg[path] = a
	}
	a.count += count
	a.total += d
}

func splitPath(path string) (parent, name string) {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i], path[i+1:]
	}
	return "", path
}

// total sums wall time and entry count over every span with this name,
// wherever it nests. A span never entered reads zero.
func (s *spans) total(name string) (time.Duration, int64) {
	var d time.Duration
	var n int64
	if s != nil {
		for path, a := range s.agg {
			if _, last := splitPath(path); last == name {
				d += a.total
				n += a.count
			}
		}
	}
	return d, n
}

// self is a span name's total minus its direct children's totals.
func (s *spans) self(name string) time.Duration {
	var d time.Duration
	for _, r := range s.rows() {
		if r.Name == name {
			d += time.Duration(r.SelfNs)
		}
	}
	return d
}

// rows renders the aggregate with self times, sorted by path.
func (s *spans) rows() []spanRow {
	if s == nil {
		return nil
	}
	children := map[string]time.Duration{}
	paths := make([]string, 0, len(s.agg))
	for path, a := range s.agg {
		parent, _ := splitPath(path)
		children[parent] += a.total
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]spanRow, 0, len(paths))
	for _, path := range paths {
		a := s.agg[path]
		parent, name := splitPath(path)
		out = append(out, spanRow{Name: name, Parent: parent, Count: a.count,
			TotalNs: int64(a.total), SelfNs: int64(a.total - children[path])})
	}
	return out
}
