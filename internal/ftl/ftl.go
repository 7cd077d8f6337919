// Package ftl implements a page-level flash translation layer (NFTL-style,
// paper ref [1]) on top of the flash array: logical-to-physical page
// mapping, sequential page allocation striped across channels, greedy
// garbage collection, and free-space accounting.
//
// GC cost is paid in simulated flash operations, so the write-cliff
// behaviour the paper's free_space_ratio feature captures (§4.2) emerges
// naturally: at low free space GC victims are mostly valid, each reclaim
// moves many pages, and foreground writes stall behind the reclaim chain.
package ftl

import (
	"fmt"
	"math"

	"repro/internal/flash"
	"repro/internal/pagetab"
)

// Space management, the same for the NVDIMM's and the SSD's flash.
const (
	// overProvision is the fraction of physical space hidden from the
	// logical address space. Typed, so 1 − overProvision is the rounded
	// float64 difference rather than the exact 0.93.
	overProvision float64 = 0.07
	// gcLowWater triggers GC when the free-block count drops to or below
	// this value.
	gcLowWater = 4
)

// blockState tracks the lifecycle of a physical block.
type blockState uint8

const (
	blockFree blockState = iota
	blockActive
	blockFull
)

// block is one physical flash block's metadata.
type block struct {
	state    blockState
	valid    int // currently valid pages
	writeIdx int // next page slot to program
}

// pendingWrite is a foreground write queued behind GC for a free block.
type pendingWrite struct {
	lpn  int64
	done func()
}

// relocation is a garbage collection's state: the victim block, its valid
// LPNs and the one being moved. GC runs one at a time, so an FTL keeps a
// single relocation whose steps are bound once, in New, and whose LPN
// buffer every collection reuses.
type relocation struct {
	f      *FTL
	victim int
	lpns   []int64 // valid LPNs of the victim when the collection began
	next   int     // index into lpns of the next page to move
	lpn    int64   // the page being moved

	onRead    func() // bound: the page is off flash
	onWritten func() // bound: the page is programmed at its new place
	onErased  func() // bound: the victim is erased
}

// FTL is the translation layer. It is single-goroutine like everything on
// the simulation engine.
type FTL struct {
	fl *flash.Array

	pagesPerBlock int
	totalPages    int64
	logicalPages  int64

	// l2p maps lpn → ppn over the logical range, in chunks allocated as
	// writes first reach them. p2l maps ppn → lpn for valid pages only;
	// it is hashed, not dense, so it holds live pages rather than every
	// physical page the write frontier has passed (DESIGN.md §15).
	l2p    pagetab.Dense
	p2l    pagetab.Table[int32]
	blocks []block
	free   []int // free block indices (LIFO)

	userActive int // active block for foreground writes (-1 none)
	gcActive   int // active block for GC relocation (-1 none)

	gcRunning bool
	gc        relocation     // the one GC in flight; reused by the next
	pending   []pendingWrite // writes waiting for a free block during GC
	draining  []pendingWrite // drainPending's buffer, swapped with pending
	// fullValidGCs counts consecutive GC cycles whose victim was 100%
	// valid (zero net reclaim). A long run means the logical space is
	// saturated — the device is mis-sized — and the simulation would
	// thrash forever; fail loudly instead.
	fullValidGCs int

	// Statistics.
	userWrites uint64
	gcWrites   uint64
	erases     uint64
	gcRuns     uint64
}

// New creates an FTL managing numBlocks physical blocks of the array. It
// panics when numBlocks leaves no room above the GC low-water mark, or
// when the physical pages do not fit the mapping tables' int32 entries.
func New(fl *flash.Array, numBlocks int) *FTL {
	if numBlocks <= gcLowWater+2 {
		panic(fmt.Sprintf("ftl: NumBlocks %d too small for low water %d", numBlocks, gcLowWater))
	}
	ppb := fl.Config().PagesPerBlock
	total := int64(numBlocks) * int64(ppb)
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("ftl: %d physical pages exceed the int32 page tables", total))
	}
	logical := int64(float64(total) * (1 - overProvision))
	f := &FTL{
		fl:            fl,
		pagesPerBlock: ppb,
		totalPages:    total,
		logicalPages:  logical,
		l2p:           pagetab.NewDense(logical),
		blocks:        make([]block, numBlocks),
		userActive:    -1,
		gcActive:      -1,
	}
	for i := numBlocks - 1; i >= 0; i-- {
		f.free = append(f.free, i)
	}
	f.gc = relocation{f: f}
	f.gc.onRead = f.gc.read
	f.gc.onWritten = f.gc.step
	f.gc.onErased = f.gc.erased
	return f
}

// PageSize returns the flash page size in bytes.
func (f *FTL) PageSize() int64 { return flash.PageSize }

// mapLPN folds any LPN into the logical address space: a negative LPN
// folds as its absolute value would. Negating the remainder rather than
// the LPN keeps math.MinInt64, whose negation overflows, in range.
func (f *FTL) mapLPN(lpn int64) int64 {
	if lpn < 0 {
		return -(lpn % f.logicalPages)
	}
	return lpn % f.logicalPages
}

// Read serves a logical page read; done fires when the data is at the
// controller. Unmapped LPNs are served as a flash read of the
// deterministic resident page (modelling pre-existing data).
func (f *FTL) Read(lpn int64, done func()) {
	lpn = f.mapLPN(lpn)
	ppn := int64(f.l2p.Get(lpn))
	if ppn < 0 {
		ppn = lpn % f.totalPages
	}
	f.fl.ReadPage(ppn, done)
}

// Write serves a logical page write; done fires when the program
// completes. If the FTL is out of free blocks the write queues behind GC.
func (f *FTL) Write(lpn int64, done func()) {
	lpn = f.mapLPN(lpn)
	f.writeMapped(lpn, done)
}

func (f *FTL) writeMapped(lpn int64, done func()) {
	ppn, ok := f.allocPage(false)
	if !ok {
		// No space right now; retry when GC frees a block.
		f.pending = append(f.pending, pendingWrite{lpn, done})
		f.maybeGC()
		return
	}
	f.invalidate(lpn)
	f.commit(lpn, ppn)
	f.userWrites++
	f.fl.WritePage(ppn, done)
	f.maybeGC()
}

// invalidate drops the current mapping of lpn, if any.
func (f *FTL) invalidate(lpn int64) {
	if old := int64(f.l2p.Get(lpn)); old >= 0 {
		f.p2l.Delete(old)
		f.l2p.Delete(lpn)
		b := int(old / int64(f.pagesPerBlock))
		if f.blocks[b].valid > 0 {
			f.blocks[b].valid--
		}
	}
}

// commit installs lpn → ppn.
func (f *FTL) commit(lpn, ppn int64) {
	f.l2p.Set(lpn, int32(ppn))
	f.p2l.Put(ppn, int32(lpn))
	f.blocks[ppn/int64(f.pagesPerBlock)].valid++
}

// allocPage returns the next free physical page from the user (or GC)
// active block, opening a new block when needed. ok is false when no free
// block is available.
func (f *FTL) allocPage(forGC bool) (ppn int64, ok bool) {
	act := &f.userActive
	if forGC {
		act = &f.gcActive
	}
	if *act >= 0 && f.blocks[*act].writeIdx >= f.pagesPerBlock {
		f.blocks[*act].state = blockFull
		*act = -1
	}
	if *act < 0 {
		// GC may always take the last block; user writes must leave one
		// block in reserve so relocation can proceed.
		minFree := 1
		if forGC {
			minFree = 0
		}
		if len(f.free) <= minFree {
			return 0, false
		}
		b := f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
		f.blocks[b].state = blockActive
		f.blocks[b].valid = 0
		f.blocks[b].writeIdx = 0
		*act = b
	}
	b := *act
	ppn = int64(b)*int64(f.pagesPerBlock) + int64(f.blocks[b].writeIdx)
	f.blocks[b].writeIdx++
	return ppn, true
}

// FreeBlocks returns the current free-block count.
func (f *FTL) FreeBlocks() int { return len(f.free) }

// UtilizedRatio returns valid pages / logical pages.
func (f *FTL) UtilizedRatio() float64 {
	return float64(f.l2p.Len()) / float64(f.logicalPages)
}

// FreeSpaceRatio returns 1 - UtilizedRatio, clamped to [0,1].
func (f *FTL) FreeSpaceRatio() float64 {
	r := 1 - f.UtilizedRatio()
	if r < 0 {
		return 0
	}
	return r
}

// maybeGC starts a garbage collection if free blocks are at or below the
// low-water mark and no GC is running.
func (f *FTL) maybeGC() {
	if f.gcRunning || len(f.free) > gcLowWater {
		return
	}
	victim := f.pickVictim()
	if victim < 0 {
		return
	}
	if f.blocks[victim].valid >= f.pagesPerBlock {
		f.fullValidGCs++
		if f.fullValidGCs > 4*len(f.blocks) {
			panic(fmt.Sprintf(
				"ftl: garbage collection cannot reclaim space (utilization %.2f); "+
					"the device's physical blocks (%d) do not back its write footprint",
				f.UtilizedRatio(), len(f.blocks)))
		}
	} else {
		f.fullValidGCs = 0
	}
	f.gcRunning = true
	f.gcRuns++
	f.gc.begin(victim)
}

// pickVictim chooses the full block with the fewest valid pages (greedy;
// the first such block on a tie).
func (f *FTL) pickVictim() int {
	best, bestValid := -1, 0
	for i := range f.blocks {
		if f.blocks[i].state != blockFull {
			continue
		}
		if v := f.blocks[i].valid; best < 0 || v < bestValid {
			best, bestValid = i, v
		}
	}
	return best
}

// begin lists the valid LPNs residing in victim and starts moving them.
func (g *relocation) begin(victim int) {
	f := g.f
	g.victim = victim
	g.lpns = g.lpns[:0]
	g.next = 0
	start := int64(victim) * int64(f.pagesPerBlock)
	for p := start; p < start+int64(f.pagesPerBlock); p++ {
		if lpn, ok := f.p2l.Get(p); ok {
			g.lpns = append(g.lpns, int64(lpn))
		}
	}
	g.step()
}

// step moves the victim's next still-valid page (read, then program into
// the GC active block), or erases the victim and releases it once none is
// left. The chain runs on simulated flash time, so foreground traffic
// feels the reclaim — the write cliff.
func (g *relocation) step() {
	f := g.f
	for g.next < len(g.lpns) {
		lpn := g.lpns[g.next]
		g.next++
		old := f.l2p.Get(lpn)
		if old < 0 {
			// Invalidated while GC in flight; skip.
			continue
		}
		g.lpn = lpn
		f.fl.ReadPage(int64(old), g.onRead)
		return
	}
	f.erases++
	f.fl.EraseBlock(int64(g.victim)*int64(f.pagesPerBlock), g.onErased)
}

// read programs the page just read into the GC active block.
func (g *relocation) read() {
	f := g.f
	dst, ok := f.allocPage(true)
	if !ok {
		// Truly out of space: should be unreachable given the GC
		// reserve invariant; fail loudly rather than deadlock.
		panic("ftl: GC could not allocate a relocation page")
	}
	f.invalidate(g.lpn)
	f.commit(g.lpn, dst)
	f.gcWrites++
	f.fl.WritePage(dst, g.onWritten)
}

// erased frees the victim block, resumes the writes that waited for space
// and starts the next collection if free space is still low.
func (g *relocation) erased() {
	f := g.f
	b := &f.blocks[g.victim]
	b.state = blockFree
	b.valid = 0
	b.writeIdx = 0
	f.free = append(f.free, g.victim)
	f.gcRunning = false
	f.drainPending()
	f.maybeGC()
}

// drainPending re-issues writes that were waiting for space. A write that
// still finds no block queues again, on the other buffer.
func (f *FTL) drainPending() {
	pend := f.pending
	f.pending = f.draining[:0]
	for i, w := range pend {
		pend[i].done = nil
		f.writeMapped(w.lpn, w.done)
	}
	f.draining = pend[:0]
}

// Prefill installs real mappings for the first ratio×logicalPages LPNs
// without consuming simulated time, modelling a device that already holds
// data. Used by the free-space experiments (Fig. 7b).
func (f *FTL) Prefill(ratio float64) {
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	n := int64(ratio * float64(f.logicalPages))
	for lpn := int64(0); lpn < n; lpn++ {
		if f.l2p.Get(lpn) >= 0 {
			continue
		}
		ppn, ok := f.allocPage(false)
		if !ok {
			break
		}
		f.commit(lpn, ppn)
	}
}

// Stats reports FTL activity counters.
type Stats struct {
	GCWrites uint64
	Erases   uint64
	GCRuns   uint64
}

// Stats returns a snapshot of activity counters.
func (f *FTL) Stats() Stats {
	return Stats{
		GCWrites: f.gcWrites,
		Erases:   f.erases,
		GCRuns:   f.gcRuns,
	}
}

// WriteAmplification returns (user+gc)/user writes, or 1 if no writes yet.
func (f *FTL) WriteAmplification() float64 {
	if f.userWrites == 0 {
		return 1
	}
	return float64(f.userWrites+f.gcWrites) / float64(f.userWrites)
}
