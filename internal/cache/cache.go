// Package cache implements the NVDIMM buffer cache with the LRFU
// replacement policy (Lee et al., 2001 — paper ref [8]). At λ = 1 LRFU is
// LRU, which serves as the comparison point. The migration experiments
// (Fig. 11, Fig. 15) depend on two behaviours modeled here: cache
// pollution by migrated-data reads, and the bypass path that avoids it.
package cache

import (
	"math"

	"repro/internal/pagetab"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Victim describes an evicted block.
type Victim struct {
	Block int64
	Dirty bool
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
// slab and are named by their int32 slab index.
type lrfuEntry struct {
	block int64
	crf   float64
	last  uint64 // access-count clock at last touch
	index int32  // heap position, or -1 while the entry is in the FIFO tier
	dirty bool
}

// heapItem is a heap-tier entry's slab index with its key beside it, so a
// sift compares keys without touching the slab. The key is kept in log
// space, key = log2(crf) + λ·last, which orders identically to CRF
// projected to a common reference time and never overflows; it is
// computed once per touch rather than on every comparison.
type heapItem struct {
	key  float64
	slot int32
}

// fifoItem records a block inserted at clock last into slab slot slot.
type fifoItem struct {
	last uint64
	slot int32
}

// LRFU is a Combined-Recency-and-Frequency cache. Lambda in (0,1]:
// λ → 0 behaves like LFU. At λ = 1 it is LRU: crf = 1 + crf·2^(−Δ) stays
// in [1, 2), so key = log2(crf) + last orders blocks by last touch. The
// clock is the access count.
//
// Eviction is two-tier. A block inserted and never referenced again has
// crf = 1, so its key is λ·last; every operation advances the clock, so
// such keys strictly increase in insertion order. Those blocks wait in a
// FIFO ring of (slot, last) records in insertion order, and only
// re-referenced blocks live in a binary min-heap on key. A touch moves a
// block from the FIFO to the heap; its FIFO record is left behind and
// skipped when it reaches the head, recognised by a slot whose last no
// longer matches (a touch or a new occupant changed it). The victim is
// the live FIFO head unless the heap minimum's key is strictly smaller:
// on an exact cross-tier key tie the FIFO block goes. That is the block
// a single heap over all entries evicts whenever the minimum key is
// unique; on a tie the single heap's choice depended on heap positions.
//
// A block leaves only by eviction, whose slab slot the incoming block
// takes over, or by Invalidate, which truncates the slab; the slab is
// therefore always dense and needs no free list. The slab, heap, ring
// and block index grow on demand, so a large, mostly empty cache costs no
// memory up front.
type LRFU struct {
	capacity int
	lambda   float64
	clock    uint64
	entries  pagetab.Table[int32] // block → slab index
	slab     []lrfuEntry
	heap     []heapItem         // re-referenced entries, a min-heap on key
	fifo     sim.Ring[fifoItem] // entries with crf = 1, in insertion order
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

// key returns e's heap key.
func (c *LRFU) key(e *lrfuEntry) float64 {
	return math.Log2(e.crf) + c.lambda*float64(e.last)
}

// The heap below is container/heap's algorithm over slab indices, with
// the same parent/child arithmetic and the same comparisons, so equal
// keys break exactly as they did with container/heap. Where
// container/heap swaps the moving item one level at a time, the sifts
// here carry it in a hole and write it once, at the position the swaps
// would have left it in.

// place puts it at heap position i and records the position in the slab.
func (c *LRFU) place(i int, it heapItem) {
	c.heap[i] = it
	c.slab[it.slot].index = int32(i)
}

func (c *LRFU) up(j int) {
	h := c.heap
	it := h[j]
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(it.key < h[i].key) {
			break
		}
		c.place(j, h[i])
		j = i
	}
	c.place(j, it)
}

func (c *LRFU) down(i0, n int) bool {
	h := c.heap
	it := h[i0]
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].key < h[j1].key {
			j = j2 // right child
		}
		if !(h[j].key < it.key) {
			break
		}
		c.place(i, h[j])
		i = j
	}
	c.place(i, it)
	return i > i0
}

// fix restores heap order after the key at heap position i changed.
func (c *LRFU) fix(i int) {
	if !c.down(i, len(c.heap)) {
		c.up(i)
	}
}

// push adds slab entry slot to the heap under key.
func (c *LRFU) push(slot int32, key float64) {
	c.heap = append(c.heap, heapItem{key: key, slot: slot})
	c.up(len(c.heap) - 1)
}

// popMin removes the minimum-key entry from the heap and returns its slab
// index: the last item takes the root's place and sifts down.
func (c *LRFU) popMin() int32 {
	slot := c.heap[0].slot
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	if n > 0 {
		c.down(0, n)
	}
	return slot
}

// victim removes the eviction victim from its tier and returns its slab
// index; the cache must be non-empty.
func (c *LRFU) victim() int32 {
	for c.fifo.Len() > 0 {
		f := c.fifo.Peek()
		if c.slab[f.slot].last != f.last {
			c.fifo.Pop() // touched or evicted since: stale
			continue
		}
		// The head's key is log2(1) + λ·last = λ·last.
		if len(c.heap) > 0 && c.heap[0].key < c.lambda*float64(f.last) {
			break
		}
		c.fifo.Pop()
		return f.slot
	}
	return c.popMin()
}

// decayFactor returns 2^(-λ·dt).
func (c *LRFU) decayFactor(dt uint64) float64 {
	return math.Exp2(-c.lambda * float64(dt))
}

// Lookup reports whether block is cached, updating recency state on a
// hit and recording hit/miss statistics.
func (c *LRFU) Lookup(block int64) bool {
	c.clock++
	i, ok := c.entries.Get(block)
	if !ok {
		c.stats.miss()
		return false
	}
	c.stats.hit()
	c.touch(i)
	return true
}

// touch records a reference to the entry in slot, moving it from the
// FIFO tier to the heap on its first re-reference.
func (c *LRFU) touch(slot int32) {
	e := &c.slab[slot]
	e.crf = 1 + e.crf*c.decayFactor(c.clock-e.last)
	e.last = c.clock
	if e.index < 0 {
		c.push(slot, c.key(e))
		return
	}
	i := int(e.index)
	c.heap[i].key = c.key(e)
	c.fix(i)
}

// Insert caches block. A full cache evicts exactly one block to make
// room, reported with evicted = true so the device can schedule a
// write-back when it is dirty.
func (c *LRFU) Insert(block int64, dirty bool) (Victim, bool) {
	c.clock++
	if i, ok := c.entries.Get(block); ok {
		if dirty {
			c.slab[i].dirty = true
		}
		c.touch(i)
		return Victim{}, false
	}
	var (
		v       Victim
		evicted bool
		slot    int32
	)
	if len(c.slab) >= c.capacity {
		// The victim's slot goes to the incoming block.
		slot = c.victim()
		old := &c.slab[slot]
		c.entries.Delete(old.block)
		v, evicted = Victim{Block: old.block, Dirty: old.dirty}, true
	} else {
		slot = int32(len(c.slab))
		c.slab = append(c.slab, lrfuEntry{})
	}
	c.slab[slot] = lrfuEntry{block: block, crf: 1, last: c.clock, index: -1, dirty: dirty}
	c.entries.Put(block, slot)
	c.fifo.Push(fifoItem{last: c.clock, slot: slot})
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
// statistics survive. The block index, slab, heap and ring keep their
// backing storage, so a power loss costs no allocation.
func (c *LRFU) Invalidate() {
	c.entries.Clear()
	c.slab = c.slab[:0]
	c.heap = c.heap[:0]
	c.fifo.Clear()
}

// Len returns the number of resident blocks.
//
//lint:ignore unreachable nvdimm TestMigratedWriteBypassesCache, TestBypassPreservesCacheContents
func (c *LRFU) Len() int { return len(c.slab) }

// Cap returns the capacity in blocks.
//
//lint:ignore unreachable core TestSchedulerAndBypassOptionsPropagate
func (c *LRFU) Cap() int { return c.capacity }

// Stats returns the hit/miss counters.
func (c *LRFU) Stats() *Stats { return &c.stats }
