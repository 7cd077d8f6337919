package ssd

// pageCounts counts, per LPN, the acknowledged writes whose pages have not
// reached flash yet. It is an open-addressed table with linear probing and
// backward-shift deletion, so a stream of inserts and deletes of ever new
// LPNs leaves no tombstones behind. A Go map under that churn regrows now
// and then, at points set by its random hash seed; this table grows only
// when more LPNs are buffered at once than ever before.
type pageCounts struct {
	slots []pageCount // power-of-two length; n == 0 marks an empty slot
	shift uint        // 64 − log2(len(slots))
	used  int         // occupied slots
}

type pageCount struct {
	lpn int64
	n   int32
}

// minPageSlots is the table's first size.
const minPageSlots = 64

// home is lpn's preferred slot (Fibonacci hashing).
func (t *pageCounts) home(lpn int64) int {
	return int(uint64(lpn) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns lpn's slot, or the empty slot that ends its probe run.
func (t *pageCounts) find(lpn int64) int {
	mask := len(t.slots) - 1
	i := t.home(lpn)
	for t.slots[i].n != 0 && t.slots[i].lpn != lpn {
		i = (i + 1) & mask
	}
	return i
}

// has reports whether lpn has a buffered write.
func (t *pageCounts) has(lpn int64) bool {
	return t.used > 0 && t.slots[t.find(lpn)].n > 0
}

// inc counts one more buffered write of lpn.
func (t *pageCounts) inc(lpn int64) {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	i := t.find(lpn)
	if t.slots[i].n == 0 {
		t.slots[i].lpn = lpn
		t.used++
	}
	t.slots[i].n++
}

// dec counts one buffered write of lpn as flushed, emptying its slot at
// zero and shifting back the entries of the probe run behind it.
func (t *pageCounts) dec(lpn int64) {
	if t.used == 0 {
		return
	}
	i := t.find(lpn)
	if t.slots[i].n == 0 {
		return
	}
	if t.slots[i].n--; t.slots[i].n > 0 {
		return
	}
	t.used--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].n != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		h := t.home(t.slots[j].lpn)
		if (i < j && (h <= i || h > j)) || (i > j && h <= i && h > j) {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = pageCount{}
}

// grow doubles the table and reinserts every entry.
func (t *pageCounts) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < minPageSlots {
		size = minPageSlots
	}
	t.slots = make([]pageCount, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for _, c := range old {
		if c.n != 0 {
			t.slots[t.find(c.lpn)] = c
		}
	}
}
