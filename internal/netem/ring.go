package netem

// ring is a FIFO queue over a circular buffer whose capacity is a power
// of two, so positions wrap with a mask. It grows — by doubling, in
// push — only when every slot is occupied, and never shrinks: capacity
// is therefore below twice the peak occupancy, however many elements
// pass through. The zero value is an empty ring.
type ring[T any] struct {
	buf  []T
	head int // position of the oldest element
	n    int // occupancy
}

func (r *ring[T]) len() int { return r.n }

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// front returns the oldest element; the ring must not be empty.
func (r *ring[T]) front() T { return r.buf[r.head] }

// pop removes and returns the oldest element, zeroing its slot so the
// ring does not pin what it no longer holds; the ring must not be empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles a full ring, unwrapping it to the start of the new
// buffer.
func (r *ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), 8))
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
