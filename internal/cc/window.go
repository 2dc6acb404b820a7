package cc

// A windowed tracks the maximum (or, with min set, the minimum) of the
// samples in a sliding window, in O(1) amortised time per sample — the
// monotonic-deque kernel behind every windowed filter in this package
// (BBR's btlBW and extra-acked maxima, Copa's standing-RTT minimum and
// queueing-delay extremes).
//
// Samples carry a stamp that never decreases from one add to the next:
// a round count for BBR, a timestamp for Copa. A sample that a later
// one matches or beats can never again be the window's best — the later
// one outlives it under every cutoff, because expiry goes by stamp — so
// add discards it at once; what remains is ordered best-first, and
// expire only ever has to look at the front. The cutoff itself need not
// be monotone (Copa's now−srtt/2 moves backwards when srtt grows):
// a sample once expired stays expired, exactly as if the whole window
// had been kept and filtered, so best always equals the extremum a
// full scan of that window would find, bit for bit.
//
// The zero value is an empty max filter.
type windowed[S ~int64, V ~int64 | ~float64] struct {
	min bool
	// q[head:] is the live deque: stamps nondecreasing, values strictly
	// worsening from front to back.
	q    []stamped[S, V]
	head int
}

type stamped[S ~int64, V ~int64 | ~float64] struct {
	at S
	v  V
}

// add records sample v stamped at, which must not be below the previous
// add's stamp.
func (w *windowed[S, V]) add(at S, v V) {
	n := len(w.q)
	for n > w.head && (w.min && v <= w.q[n-1].v || !w.min && v >= w.q[n-1].v) {
		n--
	}
	switch {
	case n == w.head:
		n, w.head = 0, 0
	case n == cap(w.q) && 2*w.head >= n:
		// Out of room with at least half of it expired at the front:
		// slide down instead of growing.
		n, w.head = copy(w.q, w.q[w.head:n]), 0
	}
	w.q = append(w.q[:n], stamped[S, V]{at, v})
}

// expire drops every sample stamped below cutoff.
func (w *windowed[S, V]) expire(cutoff S) {
	for w.head < len(w.q) && w.q[w.head].at < cutoff {
		w.head++
	}
}

// best returns the window's extremum, or zero when the window is empty.
func (w *windowed[S, V]) best() V {
	if w.head == len(w.q) {
		var zero V
		return zero
	}
	return w.q[w.head].v
}
