package transport

import "sort"

// seqRange is an inclusive range of sequence numbers (or byte offsets).
type seqRange struct{ lo, hi uint64 }

// rangeSet maintains disjoint, ascending, non-adjacent inclusive
// ranges. The zero value is an empty set.
type rangeSet struct {
	rs []seqRange
}

// add inserts a single value, reporting whether it was new.
func (r *rangeSet) add(v uint64) bool { return r.addRange(v, v) > 0 }

// addRange inserts [lo, hi] and returns how many values were newly
// covered. In-order arrival (the overwhelmingly common case on the
// transport hot path) takes an allocation-free fast path; the general
// case splices in place, allocating only when the backing array grows.
func (r *rangeSet) addRange(lo, hi uint64) uint64 {
	if hi < lo {
		panic("transport: inverted range")
	}
	n := len(r.rs)
	if n == 0 {
		r.rs = append(r.rs, seqRange{lo, hi})
		return hi - lo + 1
	}
	// Fast paths against the last range: strictly beyond it (append),
	// extending it, or already contained in it.
	if last := &r.rs[n-1]; lo >= last.lo {
		switch {
		case lo > last.hi && lo-last.hi > 1:
			r.rs = append(r.rs, seqRange{lo, hi})
			return hi - lo + 1
		case hi <= last.hi:
			return 0
		default: // overlaps or is adjacent: extend the tail
			newly := hi - last.hi
			if lo > last.hi {
				newly = hi - lo + 1 // adjacent, no overlap
			}
			last.hi = hi
			return newly
		}
	}
	// General case. Find the first range that could overlap or be
	// adjacent, fold [i, j) into merged, and splice in place.
	i := sort.Search(n, func(i int) bool { return r.rs[i].hi+1 >= lo })
	newly := hi - lo + 1
	merged := seqRange{lo, hi}
	j := i
	for j < n && r.rs[j].lo <= hi+1 {
		o := r.rs[j]
		// Subtract the overlap with [lo, hi] from the newly count.
		oLo, oHi := o.lo, o.hi
		if oLo < lo {
			oLo = lo
		}
		if oHi > hi {
			oHi = hi
		}
		if oLo <= oHi {
			newly -= oHi - oLo + 1
		}
		if o.lo < merged.lo {
			merged.lo = o.lo
		}
		if o.hi > merged.hi {
			merged.hi = o.hi
		}
		j++
	}
	switch {
	case j == i: // no overlap: insert merged before index i
		r.rs = append(r.rs, seqRange{})
		copy(r.rs[i+1:], r.rs[i:])
		r.rs[i] = merged
	default: // replace [i, j) with merged
		r.rs[i] = merged
		if j > i+1 {
			r.rs = append(r.rs[:i+1], r.rs[j:]...)
		}
	}
	return newly
}

// firstRangeReaching returns the index of the first of ranges whose hi
// is at least seq, len(ranges) when every one ends below it. The his
// must not descend — true of disjoint ranges in order: a rangeSet's own
// (contains, covered) and the tail of one that an ack carries
// (resolveAcked).
func firstRangeReaching(ranges []seqRange, seq uint64) int {
	lo, hi := 0, len(ranges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ranges[mid].hi < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// contains reports whether v is covered.
func (r *rangeSet) contains(v uint64) bool {
	i := firstRangeReaching(r.rs, v)
	return i < len(r.rs) && r.rs[i].lo <= v
}

// covered reports whether every value in [lo, hi] is present.
func (r *rangeSet) covered(lo, hi uint64) bool {
	i := firstRangeReaching(r.rs, lo)
	return i < len(r.rs) && r.rs[i].lo <= lo && r.rs[i].hi >= hi
}

// max returns the largest covered value, or 0 for an empty set.
func (r *rangeSet) max() uint64 {
	if len(r.rs) == 0 {
		return 0
	}
	return r.rs[len(r.rs)-1].hi
}

// empty reports whether the set has no values.
func (r *rangeSet) empty() bool { return len(r.rs) == 0 }

// appendTail appends up to n of the highest ranges, ascending, to dst
// and returns the extended slice. The result does not alias internal
// storage beyond dst's own backing array.
func (r *rangeSet) appendTail(dst []seqRange, n int) []seqRange {
	if len(r.rs) <= n {
		return append(dst, r.rs...)
	}
	return append(dst, r.rs[len(r.rs)-n:]...)
}

// tail returns up to n of the highest ranges, ascending, as a copy.
func (r *rangeSet) tail(n int) []seqRange {
	if len(r.rs) == 0 {
		return nil
	}
	return r.appendTail(make([]seqRange, 0, min(n, len(r.rs))), n)
}
