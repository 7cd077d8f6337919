package pagetab

// Table maps int64 keys, any value including negatives, to values of type
// V. It is open-addressed with Fibonacci hashing and linear probing, and
// deletes by shifting the rest of the probe run back, so a stream of
// inserts and deletes of ever new keys leaves no tombstones behind. It
// doubles when an insert would fill more than three quarters of its slots
// and never shrinks, so it allocates only when it holds more keys at once
// than ever before.
//
// The zero Table is empty and ready to use.
type Table[V any] struct {
	slots []slot[V] // power-of-two length, or nil before the first Put
	shift uint      // 64 − log2(len(slots))
	n     int       // occupied slots
}

type slot[V any] struct {
	key  int64
	val  V
	full bool
}

// minSlots is a table's first size.
const minSlots = 64

// home is k's preferred slot.
func (t *Table[V]) home(k int64) int {
	return int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns k's slot, or the empty slot that ends its probe run. The
// table must have slots.
func (t *Table[V]) find(k int64) int {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].full && t.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k int64) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	s := &t.slots[t.find(k)]
	return s.val, s.full
}

// Put sets k's value.
func (t *Table[V]) Put(k int64, v V) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	s := &t.slots[t.find(k)]
	if !s.full {
		s.key, s.full = k, true
		t.n++
	}
	s.val = v
}

// Delete removes k, if present, and shifts back the entries of the probe
// run behind it.
func (t *Table[V]) Delete(k int64) {
	if t.n == 0 {
		return
	}
	i := t.find(k)
	if !t.slots[i].full {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].full; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		h := t.home(t.slots[j].key)
		if (i < j && (h <= i || h > j)) || (i > j && h <= i && h > j) {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
}

// Clear removes every key, keeping the slots.
func (t *Table[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// grow doubles the table and reinserts every entry.
func (t *Table[V]) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < minSlots {
		size = minSlots
	}
	t.slots = make([]slot[V], size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for _, s := range old {
		if s.full {
			t.slots[t.find(s.key)] = s
		}
	}
}
