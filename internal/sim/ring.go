package sim

// Ring is a FIFO queue of values owned, like a FreeList, by one
// simulation object. The values sit in a ring buffer whose length is
// zero or a power of two; it doubles when full (to at least ringMin
// slots) and never shrinks, so a push allocates only when the queue is
// longer than it has ever been. The zero Ring is empty and ready to use.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// ringMin is the slot count of a Ring's first buffer.
const ringMin = 16

// Len returns the number of queued values.
func (q *Ring[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *Ring[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(2*len(q.buf), ringMin))
		for i := 0; i < q.n; i++ {
			buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Peek returns the head value; the ring must be non-empty.
func (q *Ring[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the head value; the ring must be non-empty.
// The vacated slot is zeroed, so the ring keeps no reference the value
// holds.
func (q *Ring[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Clear empties the ring, keeping its storage.
func (q *Ring[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
