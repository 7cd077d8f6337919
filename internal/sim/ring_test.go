package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRingMatchesSlice drives a Ring and a slice queue with one seeded
// stream of pushes, pops and clears, long enough to wrap the buffer at
// every size it doubles through, and compares length, head and contents
// after every operation.
func TestRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Ring[*int]
	var ref []*int
	for op := 0; op < 50000; op++ {
		switch k := rng.Intn(100); {
		case k < 55:
			v := new(int)
			*v = op
			q.Push(v)
			ref = append(ref, v)
		case k < 99:
			if len(ref) == 0 {
				continue
			}
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("op %d: Pop = %d, want %d", op, *got, *ref[0])
			}
			ref = ref[1:]
		default:
			q.Clear()
			ref = ref[:0]
		}
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, q.Len(), len(ref))
		}
		if len(ref) > 0 && q.Peek() != ref[0] {
			t.Fatalf("op %d: Peek = %d, want %d", op, *q.Peek(), *ref[0])
		}
		var held []*int
		for i, v := range q.buf {
			if (i-q.head)&(len(q.buf)-1) < q.n {
				held = append(held, v)
			} else if v != nil {
				t.Fatalf("op %d: vacated slot %d still holds %d", op, i, *v)
			}
		}
		if len(q.buf)&(len(q.buf)-1) != 0 {
			t.Fatalf("op %d: buffer length %d is not a power of two", op, len(q.buf))
		}
		slices.SortFunc(held, func(a, b *int) int { return *a - *b })
		if !slices.Equal(held, ref) {
			t.Fatalf("op %d: ring holds %d values, want %d", op, len(held), len(ref))
		}
	}
}
