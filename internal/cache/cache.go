// Package cache implements the NVDIMM buffer cache with the LRFU
// replacement policy (Lee et al., 2001 — paper ref [8]) and an LRU policy
// for comparison. The migration experiments (Fig. 11, Fig. 15) depend on
// two behaviours modeled here: cache pollution by migrated-data reads, and
// the bypass path that avoids it.
package cache

import (
	"math"

	"repro/internal/pagetab"
	"repro/internal/telemetry"
)

// Victim describes an evicted block.
type Victim struct {
	Block int64
	Dirty bool
}

// Cache is the replacement-policy abstraction.
type Cache interface {
	// Lookup reports whether block is cached, updating recency state on a
	// hit and recording hit/miss statistics.
	Lookup(block int64) bool
	// Insert caches block. A full cache evicts exactly one block to make
	// room, reported with evicted = true so the device can schedule a
	// write-back when it is dirty.
	Insert(block int64, dirty bool) (v Victim, evicted bool)
	// Stats returns the hit/miss counters.
	Stats() *Stats
}

// Stats tracks cache effectiveness, both lifetime and over a rolling
// window (Fig. 15 plots hit ratio versus request count).
type Stats struct {
	Hits, Misses             uint64
	WindowHits, WindowMisses uint64
}

func (s *Stats) hit()  { s.Hits++; s.WindowHits++ }
func (s *Stats) miss() { s.Misses++; s.WindowMisses++ }

// HitRatio returns lifetime hits/(hits+misses), 0 when empty.
func (s *Stats) HitRatio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// WindowHitRatio returns the hit ratio since the last ResetWindow.
func (s *Stats) WindowHitRatio() float64 {
	t := s.WindowHits + s.WindowMisses
	if t == 0 {
		return 0
	}
	return float64(s.WindowHits) / float64(t)
}

// ResetWindow starts a new measurement window.
func (s *Stats) ResetWindow() { s.WindowHits, s.WindowMisses = 0, 0 }

// RegisterTelemetry exposes the counters under prefix (e.g.
// "node0.nvdimm.cache."): lifetime hits, misses, and hit ratio.
func (s *Stats) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"hits", func() float64 { return float64(s.Hits) })
	reg.Gauge(prefix+"misses", func() float64 { return float64(s.Misses) })
	reg.Gauge(prefix+"hit_ratio", s.HitRatio)
}

// ---------------------------------------------------------------------------
// LRFU

// lrfuEntry is one resident block. Entries live by value in the cache's
// slab and are named by their int32 slab index. The heap key is kept in
// log space, key = log2(crf) + λ·last, which orders identically to CRF
// projected to a common reference time and never overflows; it is
// computed once per insert or touch rather than on every comparison.
type lrfuEntry struct {
	block int64
	crf   float64
	key   float64
	last  uint64 // access-count clock at last touch
	index int32  // heap position
	dirty bool
}

// LRFU is a Combined-Recency-and-Frequency cache. Lambda in (0,1]:
// λ → 0 behaves like LFU, λ = 1 like LRU. The clock is the access count.
//
// A block leaves only by eviction, whose slab slot the incoming block
// takes over, or by Invalidate, which truncates the slab; the slab is
// therefore always dense and needs no free list. The slab and the block
// index grow on demand, so a large, mostly empty cache costs no memory up
// front.
type LRFU struct {
	capacity int
	lambda   float64
	clock    uint64
	entries  pagetab.Table[int32] // block → slab index
	slab     []lrfuEntry
	heap     []int32 // slab indices, a min-heap on key
	stats    Stats
}

// DefaultLambda is the λ used by the paper-configuration NVDIMM cache.
const DefaultLambda = 0.001

// NewLRFU creates an LRFU cache holding capacity blocks. It panics on
// non-positive capacity or λ outside (0, 1].
func NewLRFU(capacity int, lambda float64) *LRFU {
	if capacity <= 0 {
		panic("cache: non-positive capacity")
	}
	if lambda <= 0 || lambda > 1 {
		panic("cache: lambda out of (0,1]")
	}
	return &LRFU{capacity: capacity, lambda: lambda}
}

// setKey refreshes e's cached heap key after its crf or last changed.
func (c *LRFU) setKey(e *lrfuEntry) {
	e.key = math.Log2(e.crf) + c.lambda*float64(e.last)
}

// The heap below is container/heap's algorithm over slab indices, step
// for step (same parent/child arithmetic, same comparisons, same swaps),
// so equal keys break exactly as they did with container/heap.

func (c *LRFU) less(i, j int) bool {
	return c.slab[c.heap[i]].key < c.slab[c.heap[j]].key
}

func (c *LRFU) swap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	c.slab[h[i]].index = int32(i)
	c.slab[h[j]].index = int32(j)
}

func (c *LRFU) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !c.less(j, i) {
			break
		}
		c.swap(i, j)
		j = i
	}
}

func (c *LRFU) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && c.less(j2, j1) {
			j = j2 // right child
		}
		if !c.less(j, i) {
			break
		}
		c.swap(i, j)
		i = j
	}
	return i > i0
}

// fix restores heap order after the key at heap position i changed.
func (c *LRFU) fix(i int) {
	if !c.down(i, len(c.heap)) {
		c.up(i)
	}
}

// push adds slab entry slot to the heap.
func (c *LRFU) push(slot int32) {
	c.slab[slot].index = int32(len(c.heap))
	c.heap = append(c.heap, slot)
	c.up(len(c.heap) - 1)
}

// popMin removes the minimum-key entry from the heap and returns its slab
// index: move it to the end, sift the moved element down, drop the end.
func (c *LRFU) popMin() int32 {
	n := len(c.heap) - 1
	c.swap(0, n)
	c.down(0, n)
	slot := c.heap[n]
	c.heap = c.heap[:n]
	return slot
}

// decayFactor returns 2^(-λ·dt).
func (c *LRFU) decayFactor(dt uint64) float64 {
	return math.Exp2(-c.lambda * float64(dt))
}

// Lookup implements Cache.
func (c *LRFU) Lookup(block int64) bool {
	c.clock++
	i, ok := c.entries.Get(block)
	if !ok {
		c.stats.miss()
		return false
	}
	c.stats.hit()
	c.touch(&c.slab[i])
	return true
}

func (c *LRFU) touch(e *lrfuEntry) {
	e.crf = 1 + e.crf*c.decayFactor(c.clock-e.last)
	e.last = c.clock
	c.setKey(e)
	c.fix(int(e.index))
}

// Insert implements Cache.
func (c *LRFU) Insert(block int64, dirty bool) (Victim, bool) {
	c.clock++
	if i, ok := c.entries.Get(block); ok {
		e := &c.slab[i]
		if dirty {
			e.dirty = true
		}
		c.touch(e)
		return Victim{}, false
	}
	var (
		v       Victim
		evicted bool
		slot    int32
	)
	if len(c.heap) >= c.capacity {
		// The victim's slot goes to the incoming block.
		slot = c.popMin()
		old := &c.slab[slot]
		c.entries.Delete(old.block)
		v, evicted = Victim{Block: old.block, Dirty: old.dirty}, true
	} else {
		slot = int32(len(c.slab))
		c.slab = append(c.slab, lrfuEntry{})
	}
	e := &c.slab[slot]
	*e = lrfuEntry{block: block, crf: 1, last: c.clock, dirty: dirty}
	c.setKey(e)
	c.entries.Put(block, slot)
	c.push(slot)
	return v, evicted
}

// Contains reports residency without touching recency or stats.
func (c *LRFU) Contains(block int64) bool {
	_, ok := c.entries.Get(block)
	return ok
}

// Invalidate empties the cache without write-backs — the power-loss
// path (DRAM cache contents are volatile; dirty lines are covered by
// flush-on-fail circuitry, so dropping them loses no data). Hit/miss
// statistics survive. The block index, slab and heap keep their backing
// storage, so a power loss costs no allocation.
func (c *LRFU) Invalidate() {
	c.entries.Clear()
	c.slab = c.slab[:0]
	c.heap = c.heap[:0]
}

// Len returns the number of resident blocks.
//
//lint:ignore unreachable nvdimm TestMigratedWriteBypassesCache, TestBypassPreservesCacheContents
func (c *LRFU) Len() int { return len(c.heap) }

// Cap returns the capacity in blocks.
//
//lint:ignore unreachable core TestSchedulerAndBypassOptionsPropagate
func (c *LRFU) Cap() int { return c.capacity }

// Stats implements Cache.
func (c *LRFU) Stats() *Stats { return &c.stats }

// ---------------------------------------------------------------------------
// LRU

// lruNode is a doubly-linked list node.
type lruNode struct {
	block      int64
	dirty      bool
	prev, next *lruNode
}

// LRU is a classic least-recently-used cache for baseline comparisons.
type LRU struct {
	capacity   int
	entries    map[int64]*lruNode
	head, tail *lruNode // head = most recent
	stats      Stats
}

// NewLRU creates an LRU cache holding capacity blocks.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("cache: non-positive capacity")
	}
	return &LRU{capacity: capacity, entries: make(map[int64]*lruNode, capacity)}
}

func (c *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *LRU) pushFront(n *lruNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// Lookup implements Cache.
func (c *LRU) Lookup(block int64) bool {
	n, ok := c.entries[block]
	if !ok {
		c.stats.miss()
		return false
	}
	c.stats.hit()
	c.unlink(n)
	c.pushFront(n)
	return true
}

// Insert implements Cache. When full, the evicted node is reused for the
// incoming block.
func (c *LRU) Insert(block int64, dirty bool) (Victim, bool) {
	if n, ok := c.entries[block]; ok {
		if dirty {
			n.dirty = true
		}
		c.unlink(n)
		c.pushFront(n)
		return Victim{}, false
	}
	var (
		v       Victim
		evicted bool
		n       *lruNode
	)
	if len(c.entries) >= c.capacity {
		n = c.tail
		c.unlink(n)
		delete(c.entries, n.block)
		v, evicted = Victim{Block: n.block, Dirty: n.dirty}, true
	} else {
		n = &lruNode{}
	}
	n.block, n.dirty = block, dirty
	c.entries[block] = n
	c.pushFront(n)
	return v, evicted
}

// Stats implements Cache.
func (c *LRU) Stats() *Stats { return &c.stats }

var (
	_ Cache = (*LRFU)(nil)
	_ Cache = (*LRU)(nil)
)
