package sim

// FreeList recycles the in-flight records of one simulation object (a
// device, a scheduler, a workload runner). Each owner keeps its own list,
// never a shared or package-level one, so runs on different goroutines
// share no state and -jobs 1 and -jobs N stay byte-identical.
//
// The list grows a slab of freeListSlab records at a time, so a fresh
// owner's warm-up pays one allocation per slab rather than one per
// record. Records come back in whatever state Put left them: the owner
// clears the fields that must not outlive a use, and binds a record's
// callbacks once, on the first use that needs them.
type FreeList[T any] struct {
	free []*T
}

// freeListSlab is how many records a FreeList allocates at once.
const freeListSlab = 32

// Get returns a recycled record, or a zero one from a fresh slab.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free = l.free[:n-1]
		return t
	}
	slab := make([]T, freeListSlab)
	if cap(l.free) < freeListSlab {
		l.free = make([]*T, 0, 2*freeListSlab)
	}
	for i := len(slab) - 1; i > 0; i-- {
		l.free = append(l.free, &slab[i])
	}
	return &slab[0]
}

// Put returns a record to the list.
func (l *FreeList[T]) Put(t *T) { l.free = append(l.free, t) }
