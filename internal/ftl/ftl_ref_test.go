package ftl

import (
	"fmt"

	"repro/internal/flash"
)

// refRelocation is refFTL's garbage collection state, as relocation.
type refRelocation struct {
	f      *refFTL
	victim int
	lpns   []int64 // valid LPNs of the victim when the collection began
	next   int     // index into lpns of the next page to move
	lpn    int64   // the page being moved

	onRead    func() // bound: the page is off flash
	onWritten func() // bound: the page is programmed at its new place
	onErased  func() // bound: the victim is erased
}

// refFTL is the translation layer as it was with l2p and p2l kept in Go
// maps, before the page tables of package pagetab replaced them. It is the
// reference TestFTLMatchesReference holds FTL to, and apart from the
// names and the dropped accessors it is that code unchanged.
type refFTL struct {
	fl *flash.Array

	pagesPerBlock int
	totalPages    int64
	logicalPages  int64

	l2p    map[int64]int64 // lpn → ppn
	p2l    map[int64]int64 // ppn → lpn (valid pages only)
	blocks []block
	free   []int // free block indices (LIFO)

	userActive int // active block for foreground writes (-1 none)
	gcActive   int // active block for GC refRelocation (-1 none)

	gcRunning bool
	gc        refRelocation  // the one GC in flight; reused by the next
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

// newRef creates a refFTL managing numBlocks physical blocks of the array. It
// panics when numBlocks leaves no room above the GC low-water mark.
func newRef(fl *flash.Array, numBlocks int) *refFTL {
	if numBlocks <= gcLowWater+2 {
		panic(fmt.Sprintf("ftl: NumBlocks %d too small for low water %d", numBlocks, gcLowWater))
	}
	ppb := fl.Config().PagesPerBlock
	total := int64(numBlocks) * int64(ppb)
	f := &refFTL{
		fl:            fl,
		pagesPerBlock: ppb,
		totalPages:    total,
		logicalPages:  int64(float64(total) * (1 - overProvision)),
		l2p:           make(map[int64]int64),
		p2l:           make(map[int64]int64),
		blocks:        make([]block, numBlocks),
		userActive:    -1,
		gcActive:      -1,
	}
	for i := numBlocks - 1; i >= 0; i-- {
		f.free = append(f.free, i)
	}
	f.gc = refRelocation{f: f}
	f.gc.onRead = f.gc.read
	f.gc.onWritten = f.gc.step
	f.gc.onErased = f.gc.erased
	return f
}

// mapLPN folds any LPN into the logical address space.
func (f *refFTL) mapLPN(lpn int64) int64 {
	if lpn < 0 {
		lpn = -lpn
	}
	return lpn % f.logicalPages
}

// Read serves a logical page read; done fires when the data is at the
// controller. Unmapped LPNs are served as a flash read of the
// deterministic resident page (modelling pre-existing data).
func (f *refFTL) Read(lpn int64, done func()) {
	lpn = f.mapLPN(lpn)
	ppn, ok := f.l2p[lpn]
	if !ok {
		ppn = lpn % f.totalPages
	}
	f.fl.ReadPage(ppn, done)
}

// Write serves a logical page write; done fires when the program
// completes. If the refFTL is out of free blocks the write queues behind GC.
func (f *refFTL) Write(lpn int64, done func()) {
	lpn = f.mapLPN(lpn)
	f.writeMapped(lpn, done)
}

func (f *refFTL) writeMapped(lpn int64, done func()) {
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
func (f *refFTL) invalidate(lpn int64) {
	if old, ok := f.l2p[lpn]; ok {
		delete(f.p2l, old)
		delete(f.l2p, lpn)
		b := int(old / int64(f.pagesPerBlock))
		if f.blocks[b].valid > 0 {
			f.blocks[b].valid--
		}
	}
}

// commit installs lpn → ppn.
func (f *refFTL) commit(lpn, ppn int64) {
	f.l2p[lpn] = ppn
	f.p2l[ppn] = lpn
	f.blocks[ppn/int64(f.pagesPerBlock)].valid++
}

// allocPage returns the next free physical page from the user (or GC)
// active block, opening a new block when needed. ok is false when no free
// block is available.
func (f *refFTL) allocPage(forGC bool) (ppn int64, ok bool) {
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
		// block in reserve so refRelocation can proceed.
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
func (f *refFTL) FreeBlocks() int { return len(f.free) }

// UtilizedRatio returns valid pages / logical pages.
func (f *refFTL) UtilizedRatio() float64 {
	return float64(int64(len(f.l2p))) / float64(f.logicalPages)
}

// maybeGC starts a garbage collection if free blocks are at or below the
// low-water mark and no GC is running.
func (f *refFTL) maybeGC() {
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
func (f *refFTL) pickVictim() int {
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
func (g *refRelocation) begin(victim int) {
	f := g.f
	g.victim = victim
	g.lpns = g.lpns[:0]
	g.next = 0
	start := int64(victim) * int64(f.pagesPerBlock)
	for p := start; p < start+int64(f.pagesPerBlock); p++ {
		if lpn, ok := f.p2l[p]; ok {
			g.lpns = append(g.lpns, lpn)
		}
	}
	g.step()
}

// step moves the victim's next still-valid page (read, then program into
// the GC active block), or erases the victim and releases it once none is
// left. The chain runs on simulated flash time, so foreground traffic
// feels the reclaim — the write cliff.
func (g *refRelocation) step() {
	f := g.f
	for g.next < len(g.lpns) {
		lpn := g.lpns[g.next]
		g.next++
		old, ok := f.l2p[lpn]
		if !ok {
			// Invalidated while GC in flight; skip.
			continue
		}
		g.lpn = lpn
		f.fl.ReadPage(old, g.onRead)
		return
	}
	f.erases++
	f.fl.EraseBlock(int64(g.victim)*int64(f.pagesPerBlock), g.onErased)
}

// read programs the page just read into the GC active block.
func (g *refRelocation) read() {
	f := g.f
	dst, ok := f.allocPage(true)
	if !ok {
		// Truly out of space: should be unreachable given the GC
		// reserve invariant; fail loudly rather than deadlock.
		panic("ftl: GC could not allocate a refRelocation page")
	}
	f.invalidate(g.lpn)
	f.commit(g.lpn, dst)
	f.gcWrites++
	f.fl.WritePage(dst, g.onWritten)
}

// erased frees the victim block, resumes the writes that waited for space
// and starts the next collection if free space is still low.
func (g *refRelocation) erased() {
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
func (f *refFTL) drainPending() {
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
func (f *refFTL) Prefill(ratio float64) {
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	n := int64(ratio * float64(f.logicalPages))
	for lpn := int64(0); lpn < n; lpn++ {
		if _, ok := f.l2p[lpn]; ok {
			continue
		}
		ppn, ok := f.allocPage(false)
		if !ok {
			break
		}
		f.commit(lpn, ppn)
	}
}

// Stats returns a snapshot of activity counters.
func (f *refFTL) Stats() Stats {
	return Stats{
		GCWrites: f.gcWrites,
		Erases:   f.erases,
		GCRuns:   f.gcRuns,
	}
}

// WriteAmplification returns (user+gc)/user writes, or 1 if no writes yet.
func (f *refFTL) WriteAmplification() float64 {
	if f.userWrites == 0 {
		return 1
	}
	return float64(f.userWrites+f.gcWrites) / float64(f.userWrites)
}
