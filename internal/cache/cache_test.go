package cache

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// caches returns the two ends of the policy range the tests run over:
// the paper's λ and λ = 1, which is LRU.
func caches(capacity int) map[string]*LRFU {
	return map[string]*LRFU{
		"lrfu": NewLRFU(capacity, DefaultLambda),
		"lru":  NewLRFU(capacity, 1),
	}
}

func TestConstructorsPanicOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLRFU(0, 0.5) },
		func() { NewLRFU(10, 0) },
		func() { NewLRFU(10, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestBasicHitMiss(t *testing.T) {
	for name, c := range caches(4) {
		if c.Lookup(1) {
			t.Fatalf("%s: hit on empty cache", name)
		}
		c.Insert(1, false)
		if !c.Lookup(1) {
			t.Fatalf("%s: miss after insert", name)
		}
		st := c.Stats()
		if st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("%s: stats = %+v", name, st)
		}
		if st.HitRatio() != 0.5 {
			t.Fatalf("%s: hit ratio = %v", name, st.HitRatio())
		}
	}
}

func TestCapacityEnforced(t *testing.T) {
	for name, c := range caches(3) {
		for i := int64(0); i < 10; i++ {
			c.Insert(i, false)
		}
		if c.Len() != 3 {
			t.Fatalf("%s: len = %d, want 3", name, c.Len())
		}
		if c.Cap() != 3 {
			t.Fatalf("%s: cap = %d", name, c.Cap())
		}
	}
}

func TestEvictionReturnsVictims(t *testing.T) {
	for name, c := range caches(2) {
		c.Insert(1, true)
		c.Insert(2, false)
		v, evicted := c.Insert(3, false)
		if !evicted {
			t.Fatalf("%s: no victim, want 1", name)
		}
		if v.Block != 1 && v.Block != 2 {
			t.Fatalf("%s: unexpected victim %d", name, v.Block)
		}
	}
}

func TestDirtyVictimFlag(t *testing.T) {
	for name, c := range caches(1) {
		c.Insert(1, true)
		v, evicted := c.Insert(2, false)
		if !evicted || !v.Dirty {
			t.Fatalf("%s: dirty flag lost on eviction: %+v %v", name, v, evicted)
		}
		v, evicted = c.Insert(3, false)
		if !evicted || v.Dirty {
			t.Fatalf("%s: clean block evicted dirty: %+v %v", name, v, evicted)
		}
	}
}

func TestContainsNoStatsEffect(t *testing.T) {
	c := NewLRFU(2, DefaultLambda)
	c.Insert(1, false)
	before := *c.Stats()
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if *c.Stats() != before {
		t.Fatal("Contains mutated stats")
	}
}

func TestReinsertUpdatesDirty(t *testing.T) {
	for name, c := range caches(2) {
		c.Insert(1, false)
		c.Insert(1, true) // same block, now dirty
		if c.Len() != 1 {
			t.Fatalf("%s: duplicate insert grew cache", name)
		}
		if _, evicted := c.Insert(2, false); evicted {
			t.Fatalf("%s: eviction with free space", name)
		}
		// Block 1 may or may not be the victim depending on policy, but if
		// it is, it must be dirty.
		if v, evicted := c.Insert(3, false); evicted && v.Block == 1 && !v.Dirty {
			t.Fatalf("%s: re-insert lost dirty bit", name)
		}
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewLRFU(2, 1)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Lookup(1) // 1 becomes most recent
	if v, evicted := c.Insert(3, false); !evicted || v.Block != 2 {
		t.Fatalf("LRU evicted %+v (%v), want block 2", v, evicted)
	}
}

func TestLRFUFrequencyProtects(t *testing.T) {
	// A frequently-accessed block should survive a scan that would evict
	// it under LRU.
	c := NewLRFU(3, 0.01)
	c.Insert(1, false)
	for i := 0; i < 20; i++ {
		c.Lookup(1)
	}
	c.Insert(2, false)
	c.Insert(3, false)
	// Scan of new blocks: 4, 5, 6...
	for b := int64(4); b < 10; b++ {
		c.Insert(b, false)
	}
	if !c.Contains(1) {
		t.Fatal("LRFU evicted the hot block during a scan")
	}
}

// TestLRFUHighLambdaActsLikeLRU checks λ = 1 against an LRU oracle: a
// map of each resident block's last touch. Every eviction must take the
// resident block touched longest ago, and only an insert into a full
// cache of a non-resident block may evict.
func TestLRFUHighLambdaActsLikeLRU(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(32)
		c := NewLRFU(capacity, 1)
		lastTouch := make(map[int64]int) // resident block → op index
		for op := 0; op < 5000; op++ {
			b := int64(rng.Intn(3 * capacity))
			_, resident := lastTouch[b]
			if rng.Intn(2) == 0 {
				if c.Lookup(b) != resident {
					t.Fatalf("seed %d op %d: Lookup(%d) = %v, oracle residency %v", seed, op, b, !resident, resident)
				}
				if resident {
					lastTouch[b] = op
				}
				continue
			}
			oldest, oldestAt := int64(-1), op
			for blk, at := range lastTouch {
				if at < oldestAt {
					oldest, oldestAt = blk, at
				}
			}
			v, evicted := c.Insert(b, false)
			wantEvict := !resident && len(lastTouch) == capacity
			if evicted != wantEvict || (evicted && v.Block != oldest) {
				t.Fatalf("seed %d op %d: Insert(%d) evicted %v (%v), want %v (block %d, touched at op %d)",
					seed, op, b, v, evicted, wantEvict, oldest, oldestAt)
			}
			if evicted {
				delete(lastTouch, oldest)
			}
			lastTouch[b] = op
		}
	}
}

func TestWindowStats(t *testing.T) {
	c := NewLRFU(2, 1)
	c.Insert(1, false)
	c.Lookup(1)
	c.Lookup(2)
	st := c.Stats()
	if st.WindowHitRatio() != 0.5 {
		t.Fatalf("window hit ratio = %v", st.WindowHitRatio())
	}
	st.ResetWindow()
	if st.WindowHitRatio() != 0 {
		t.Fatal("window not reset")
	}
	if st.HitRatio() == 0 {
		t.Fatal("lifetime stats should survive window reset")
	}
	c.Lookup(1)
	if st.WindowHitRatio() != 1 {
		t.Fatalf("post-reset window ratio = %v", st.WindowHitRatio())
	}
}

func TestEmptyStats(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 || s.WindowHitRatio() != 0 {
		t.Fatal("empty stats non-zero")
	}
}

// Property: Len never exceeds Cap and every reported victim is no longer
// resident, for arbitrary operation sequences at the paper's λ and at
// λ = 1 (LRU).
func TestCacheInvariantsProperty(t *testing.T) {
	run := func(mk func() *LRFU) func(ops []uint8, blocks []int16) bool {
		return func(ops []uint8, blocks []int16) bool {
			c := mk()
			n := len(ops)
			if len(blocks) < n {
				n = len(blocks)
			}
			for i := 0; i < n; i++ {
				b := int64(blocks[i])
				switch ops[i] % 2 {
				case 0:
					c.Lookup(b)
				case 1:
					if v, evicted := c.Insert(b, ops[i]%4 == 1); evicted && c.Contains(v.Block) {
						return false
					}
				}
				if c.Len() > c.Cap() {
					return false
				}
			}
			return true
		}
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	for name, lambda := range map[string]float64{"LRFU": DefaultLambda, "LRU": 1} {
		if err := quick.Check(run(func() *LRFU { return NewLRFU(8, lambda) }), cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestMigrationScanPollutesLRU(t *testing.T) {
	// The Fig. 11/15 phenomenon in miniature: a working set that fits in
	// cache gets evicted by a one-pass migration scan, cratering the hit
	// ratio; skipping insertion (bypass) preserves it.
	workingSet := func(c *LRFU) {
		for round := 0; round < 5; round++ {
			for b := int64(0); b < 50; b++ {
				if !c.Lookup(b) {
					c.Insert(b, false)
				}
			}
		}
	}
	polluted := NewLRFU(100, 1)
	workingSet(polluted)
	// Migration scan inserts 1000 one-shot blocks.
	for b := int64(1000); b < 2000; b++ {
		polluted.Insert(b, false)
	}
	polluted.Stats().ResetWindow()
	workingSet(polluted)
	pollutedRatio := polluted.Stats().WindowHitRatio()

	bypassed := NewLRFU(100, 1)
	workingSet(bypassed)
	// Migration scan bypasses: no insertions at all.
	bypassed.Stats().ResetWindow()
	workingSet(bypassed)
	bypassedRatio := bypassed.Stats().WindowHitRatio()

	if pollutedRatio >= bypassedRatio {
		t.Fatalf("pollution (%v) should lower hit ratio vs bypass (%v)",
			pollutedRatio, bypassedRatio)
	}
}

// TestLRFUMatchesReference drives the slab LRFU and the container/heap
// reference (lrfu_ref_test.go) with the same seeded operation streams and
// requires identical observable behaviour after every operation. The
// block range is a little over twice the capacity, so re-touches,
// evictions of recently touched blocks and dirty victims are common.
// Capacity 2500 takes the slab through several reallocations.
func TestLRFUMatchesReference(t *testing.T) {
	var capacities []int
	for capacity := 1; capacity <= 64; capacity++ {
		capacities = append(capacities, capacity)
	}
	capacities = append(capacities, 2500)
	for _, lambda := range []float64{DefaultLambda, 0.5, 1} {
		for _, capacity := range capacities {
			rng := rand.New(rand.NewSource(int64(capacity)*7919 + int64(lambda*1e6)))
			got, want := NewLRFU(capacity, lambda), newRefLRFU(capacity, lambda)
			blocks := int64(2*capacity + 3)
			full := 0
			for op := 0; op < max(3000, 20*capacity); op++ {
				b := rng.Int63n(blocks)
				fail := func(what string, g, w interface{}) {
					t.Fatalf("λ=%v cap=%d op %d: %s(%d) = %v, reference %v", lambda, capacity, op, what, b, g, w)
				}
				switch k := rng.Intn(100); {
				case k < 40:
					if g, w := got.Lookup(b), want.Lookup(b); g != w {
						fail("Lookup", g, w)
					}
				case k < 80:
					dirty := rng.Intn(2) == 0
					v, evicted := got.Insert(b, dirty)
					ref := want.Insert(b, dirty)
					if evicted != (len(ref) == 1) || len(ref) > 1 || (evicted && v != ref[0]) {
						fail("Insert", fmt.Sprintf("%+v %v", v, evicted), ref)
					}
				case k < 99:
					if g, w := got.Contains(b), want.Contains(b); g != w {
						fail("Contains", g, w)
					}
				default:
					// Rarer for large caches, so they still fill up.
					if rng.Intn(max(1, capacity/16)) == 0 {
						got.Invalidate()
						want.Invalidate()
					}
				}
				if got.Len() != want.Len() {
					fail("Len", got.Len(), want.Len())
				}
				if *got.Stats() != want.stats {
					fail("Stats", *got.Stats(), want.stats)
				}
				full = max(full, got.Len())
			}
			if full != capacity {
				t.Fatalf("λ=%v cap=%d: the stream never filled the cache (peak %d)", lambda, capacity, full)
			}
		}
	}
}

// TestInvalidateBehavesLikeFresh checks that a warmed cache, once
// invalidated, is empty, keeps its hit/miss counters, and from then on
// answers every operation exactly as a newly built cache does.
func TestInvalidateBehavesLikeFresh(t *testing.T) {
	builds := map[string]func() *LRFU{
		"lrfu":     func() *LRFU { return NewLRFU(16, DefaultLambda) },
		"lrfu-λ=1": func() *LRFU { return NewLRFU(16, 1) },
	}
	for name, mk := range builds {
		rng := rand.New(rand.NewSource(11))
		used := mk()
		for i := 0; i < 500; i++ {
			b := rng.Int63n(40)
			if !used.Lookup(b) {
				used.Insert(b, i%3 == 0)
			}
		}
		kept := *used.Stats()
		used.Invalidate()
		if used.Len() != 0 || used.Contains(0) {
			t.Fatalf("%s: invalidated cache still holds blocks (len %d)", name, used.Len())
		}
		if *used.Stats() != kept {
			t.Fatalf("%s: Invalidate changed stats %+v → %+v", name, kept, *used.Stats())
		}
		fresh := mk()
		for i := 0; i < 2000; i++ {
			b := rng.Int63n(40)
			switch i % 3 {
			case 0, 1:
				if g, w := used.Lookup(b), fresh.Lookup(b); g != w {
					t.Fatalf("%s: op %d Lookup(%d) = %v, fresh %v", name, i, b, g, w)
				}
			case 2:
				gv, ge := used.Insert(b, i%2 == 0)
				wv, we := fresh.Insert(b, i%2 == 0)
				if gv != wv || ge != we {
					t.Fatalf("%s: op %d Insert(%d) = %+v %v, fresh %+v %v", name, i, b, gv, ge, wv, we)
				}
			}
			if used.Len() != fresh.Len() {
				t.Fatalf("%s: op %d Len = %d, fresh %d", name, i, used.Len(), fresh.Len())
			}
		}
		st, fs := used.Stats(), fresh.Stats()
		if st.Hits != kept.Hits+fs.Hits || st.Misses != kept.Misses+fs.Misses {
			t.Fatalf("%s: stats %+v, want kept %+v plus fresh %+v", name, *st, kept, *fs)
		}
	}
}

// TestLRFUHeapMatchesContainerHeap checks the hand-written heap against
// container/heap on keys drawn from a handful of values, so most
// comparisons tie: after every push, pop and key change, both must hold
// the same slab indices in the same positions. LRFU keys seldom tie
// exactly, so TestLRFUMatchesReference alone would not notice a
// different tie-break.
func TestLRFUHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewLRFU(64, DefaultLambda)
	ref := &refKeyHeap{}
	for op := 0; op < 20000; op++ {
		switch k := rng.Intn(10); {
		case k < 4 || len(c.heap) == 0:
			if len(c.slab) == 64 {
				continue
			}
			key := float64(rng.Intn(4))
			slot := int32(len(c.slab))
			c.slab = append(c.slab, lrfuEntry{})
			ref.keys = append(ref.keys, key)
			c.push(slot, key)
			heap.Push(ref, slot)
		case k < 6:
			got, want := c.popMin(), heap.Pop(ref).(int32)
			if got != want {
				t.Fatalf("op %d: popMin = slot %d, container/heap pops %d", op, got, want)
			}
			// Put the popped entry back so the slab stays dense.
			c.push(got, ref.keys[got])
			heap.Push(ref, want)
		default:
			i := rng.Intn(len(c.heap))
			slot := c.heap[i].slot
			key := float64(rng.Intn(4))
			c.heap[i].key, ref.keys[slot] = key, key
			c.fix(i)
			heap.Fix(ref, i)
		}
		for i, it := range c.heap {
			if slot := it.slot; slot != ref.ids[i] || c.slab[slot].index != int32(i) || it.key != ref.keys[slot] {
				t.Fatalf("op %d: heap[%d] = slot %d (index %d), container/heap has %d",
					op, i, slot, c.slab[slot].index, ref.ids[i])
			}
		}
	}
}

// TestLRFUCrossTierTie pins the victim rule on an exact key tie between
// the tiers. At λ = 1 a block looked up on every clock tick reaches
// crf = 2 exactly (the series 1 + crf/2 rounds onto 2 after 53 terms),
// so its key is log2(2) + last = last + 1: the key λ·last of a block
// inserted on the next tick. On that tie the FIFO block is evicted. The
// single-heap reference evicts the heap block instead, because there its
// choice depends on heap positions. With fewer lookups the heap block's
// key is strictly smaller and it is evicted.
func TestLRFUCrossTierTie(t *testing.T) {
	for _, tc := range []struct {
		lookups int
		tie     bool
		victim  int64
	}{
		{lookups: 60, tie: true, victim: 2},
		{lookups: 10, tie: false, victim: 1},
	} {
		c, ref := NewLRFU(2, 1), newRefLRFU(2, 1)
		c.Insert(1, false)
		ref.Insert(1, false)
		for i := 0; i < tc.lookups; i++ {
			c.Lookup(1)
			ref.Lookup(1)
		}
		c.Insert(2, false)
		ref.Insert(2, false)
		slot, _ := c.entries.Get(2)
		heapKey, fifoKey := c.heap[0].key, c.key(&c.slab[slot])
		if (heapKey == fifoKey) != tc.tie || heapKey > fifoKey {
			t.Fatalf("%d lookups: heap key %v, FIFO key %v, want tie %v", tc.lookups, heapKey, fifoKey, tc.tie)
		}
		if v, evicted := c.Insert(3, false); !evicted || v.Block != tc.victim {
			t.Fatalf("%d lookups: evicted %+v (%v), want block %d", tc.lookups, v, evicted, tc.victim)
		}
		if v := ref.Insert(3, false); len(v) != 1 || (v[0].Block == tc.victim) != !tc.tie {
			t.Fatalf("%d lookups: reference evicted %+v", tc.lookups, v)
		}
		if err := c.check(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzLRFUVsReference drives the two-tier LRFU and the single-heap
// reference with one operation stream and requires identical results,
// length and statistics after every operation, with the tier invariants
// checked throughout. The first byte picks the capacity, the second λ;
// each further byte is one operation. Scans insert never-seen blocks,
// which mostly stay in the FIFO tier and leave it by eviction; a hot set
// about half the capacity is looked up and re-inserted, which moves it
// to the heap. The two may legitimately differ on an exact tie for the
// minimum key, so a stream ends at an eviction whose minimum is not
// unique.
func FuzzLRFUVsReference(f *testing.F) {
	f.Add([]byte{8, 0, 0, 8, 16, 3, 4, 3, 11, 3, 0, 1, 2, 10, 3, 3, 4, 5, 13, 7})
	f.Add([]byte{3, 2, 3, 3, 3, 0, 0, 8, 8, 16, 3, 3, 7, 3, 3, 3, 5, 6, 14})
	f.Add([]byte{1, 1, 3, 0, 3, 2, 10, 3, 7, 3})
	scan := make([]byte, 200)
	for i := range scan {
		scan[i] = []byte{3, 4, 0, 8, 2, 5}[i%6]
	}
	f.Add(append([]byte{31, 0}, scan...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(data[0]%32)
		lambda := []float64{DefaultLambda, 0.5, 1}[data[1]%3]
		got, want := NewLRFU(capacity, lambda), newRefLRFU(capacity, lambda)
		hot := int64(capacity/2 + 1) // hot blocks are [0, hot)
		next := int64(1000)          // the next never-seen scan block
		for op, b := range data[2:] {
			arg := int64(b >> 3)
			fail := func(what string, g, w interface{}) {
				t.Fatalf("λ=%v cap=%d op %d (%#x): %s = %v, reference %v", lambda, capacity, op, b, what, g, w)
			}
			insert := func(block int64, dirty bool) {
				if !got.Contains(block) && got.Len() == capacity && !minKeyUnique(got) {
					t.SkipNow() // a tie for the victim: the two may part
				}
				v, evicted := got.Insert(block, dirty)
				ref := want.Insert(block, dirty)
				if evicted != (len(ref) == 1) || len(ref) > 1 || (evicted && v != ref[0]) {
					fail(fmt.Sprintf("Insert(%d)", block), fmt.Sprintf("%+v %v", v, evicted), ref)
				}
			}
			switch b & 7 {
			case 0, 1:
				block := arg % hot
				if g, w := got.Lookup(block), want.Lookup(block); g != w {
					fail(fmt.Sprintf("Lookup(%d)", block), g, w)
				}
			case 2:
				insert(arg%hot, arg&1 == 1)
			case 3, 4:
				insert(next, arg&1 == 1)
				next++
			case 5:
				block := next - 1 - arg%8 // a recent scan block
				if g, w := got.Lookup(block), want.Lookup(block); g != w {
					fail(fmt.Sprintf("Lookup(%d)", block), g, w)
				}
			case 6:
				block := next - 1 - arg
				if g, w := got.Contains(block), want.Contains(block); g != w {
					fail(fmt.Sprintf("Contains(%d)", block), g, w)
				}
			case 7:
				if arg == 0 {
					got.Invalidate()
					want.Invalidate()
				} else {
					insert(arg%hot, false)
				}
			}
			if got.Len() != want.Len() {
				fail("Len", got.Len(), want.Len())
			}
			if *got.Stats() != want.stats {
				fail("Stats", *got.Stats(), want.stats)
			}
			if err := got.check(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	})
}

// minKeyUnique reports whether exactly one resident block has the
// minimum key.
func minKeyUnique(c *LRFU) bool {
	n, min := 0, math.Inf(1)
	for i := range c.slab {
		switch k := c.key(&c.slab[i]); {
		case k < min:
			n, min = 1, k
		case k == min:
			n++
		}
	}
	return n == 1
}

// check verifies the two tiers: every heap item names an entry that
// records its position and whose key it carries, in heap order; every
// other entry has crf = 1 and a live FIFO record; live records are in
// strictly increasing clock order; and the block index names each slot.
// It reads the ring by rotating it once through Pop and Push, so it
// leaves the ring as it found it unless it returns an error.
func (c *LRFU) check() error {
	for i, it := range c.heap {
		e := &c.slab[it.slot]
		if e.index != int32(i) || it.key != c.key(e) {
			return fmt.Errorf("heap[%d] = slot %d key %v; entry index %d key %v", i, it.slot, it.key, e.index, c.key(e))
		}
		if p := (i - 1) / 2; i > 0 && it.key < c.heap[p].key {
			return fmt.Errorf("heap[%d] key %v below parent's %v", i, it.key, c.heap[p].key)
		}
	}
	live, last := 0, uint64(0)
	for i := 0; i < c.fifo.Len(); i++ {
		f := c.fifo.Pop()
		c.fifo.Push(f) // rotate the ring through once
		if c.slab[f.slot].last != f.last {
			continue
		}
		if e := &c.slab[f.slot]; e.index >= 0 || e.crf != 1 || f.last <= last && live > 0 {
			return fmt.Errorf("live FIFO record %+v: entry %+v after clock %d", f, *e, last)
		}
		live, last = live+1, f.last
	}
	if live+len(c.heap) != len(c.slab) || len(c.slab) > c.capacity {
		return fmt.Errorf("%d live FIFO records + %d heap items, %d resident, capacity %d", live, len(c.heap), len(c.slab), c.capacity)
	}
	for i := range c.slab {
		if slot, ok := c.entries.Get(c.slab[i].block); !ok || slot != int32(i) {
			return fmt.Errorf("block %d in slot %d indexed at %d (%v)", c.slab[i].block, i, slot, ok)
		}
	}
	return nil
}
