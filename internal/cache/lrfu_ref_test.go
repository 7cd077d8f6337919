package cache

import (
	"container/heap"
	"math"
)

// refLRFU is the pointer-entry LRFU on container/heap that the slab LRFU
// replaced. It recomputes every key on every comparison and allocates an
// entry per insert, which makes it slow but obviously faithful to the
// policy; TestLRFUMatchesReference drives both side by side.
type refLRFU struct {
	capacity int
	lambda   float64
	clock    uint64
	entries  map[int64]*refEntry
	heap     refHeap
	stats    Stats
}

type refEntry struct {
	owner *refLRFU
	block int64
	crf   float64
	last  uint64
	dirty bool
	index int
}

type refHeap []*refEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key() < h[j].key() }
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x interface{}) {
	e := x.(*refEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (e *refEntry) key() float64 {
	return math.Log2(e.crf) + e.owner.lambda*float64(e.last)
}

func newRefLRFU(capacity int, lambda float64) *refLRFU {
	return &refLRFU{capacity: capacity, lambda: lambda, entries: make(map[int64]*refEntry, capacity)}
}

func (c *refLRFU) Lookup(block int64) bool {
	c.clock++
	e, ok := c.entries[block]
	if !ok {
		c.stats.miss()
		return false
	}
	c.stats.hit()
	c.touch(e)
	return true
}

func (c *refLRFU) touch(e *refEntry) {
	e.crf = 1 + e.crf*math.Exp2(-c.lambda*float64(c.clock-e.last))
	e.last = c.clock
	heap.Fix(&c.heap, e.index)
}

func (c *refLRFU) Insert(block int64, dirty bool) []Victim {
	c.clock++
	if e, ok := c.entries[block]; ok {
		if dirty {
			e.dirty = true
		}
		c.touch(e)
		return nil
	}
	var victims []Victim
	for len(c.entries) >= c.capacity {
		v := heap.Pop(&c.heap).(*refEntry)
		delete(c.entries, v.block)
		victims = append(victims, Victim{Block: v.block, Dirty: v.dirty})
	}
	e := &refEntry{owner: c, block: block, crf: 1, last: c.clock, dirty: dirty}
	c.entries[block] = e
	heap.Push(&c.heap, e)
	return victims
}

func (c *refLRFU) Contains(block int64) bool {
	_, ok := c.entries[block]
	return ok
}

func (c *refLRFU) Invalidate() {
	c.entries = make(map[int64]*refEntry, c.capacity)
	c.heap = nil
}

func (c *refLRFU) Len() int { return len(c.entries) }

// refKeyHeap is container/heap over slab indices, with keys looked up in
// a side table, so a test can set keys directly and make them tie.
type refKeyHeap struct {
	ids  []int32
	keys []float64
}

func (h *refKeyHeap) Len() int           { return len(h.ids) }
func (h *refKeyHeap) Less(i, j int) bool { return h.keys[h.ids[i]] < h.keys[h.ids[j]] }
func (h *refKeyHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *refKeyHeap) Push(x interface{}) { h.ids = append(h.ids, x.(int32)) }
func (h *refKeyHeap) Pop() interface{} {
	x := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return x
}
