package nvdimm

import (
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The request path keeps its in-flight state in three kinds of records,
// each pooled on a per-device sim.FreeList. A record's callbacks are bound
// once, on the first use that needs them, so a steady stream of requests
// allocates nothing (DESIGN.md §15).

// request is one submitted I/O from Submit to completion. complete
// recycles it just before done runs, after copying r and done out.
type request struct {
	n         *NVDIMM
	r         *trace.IORequest
	done      device.Completion
	first     int64 // first logical page
	pages     int   // pages spanned
	per       int64 // bytes each page moves over the channel
	remaining int   // pages not yet finished
	buffered  bool  // the last crossing lands the data in the buffer cache

	onPage  func() // bound: one page finished
	onFlash func() // bound: a page's flash read finished
}

// pageDone counts a finished page; the last one completes the request, or
// hands a buffered write to the buffer cache.
func (q *request) pageDone() {
	q.remaining--
	if q.remaining > 0 {
		return
	}
	if q.buffered {
		q.n.bufferInsert(q)
		return
	}
	q.n.complete(q)
}

// crossPage moves one page of read data to the memory controller.
func (q *request) crossPage() { q.n.pageCrossing(q.per, q.onPage) }

// pageUse is what a page record carries.
type pageUse uint8

const (
	pageWrite  pageUse = iota // a scheduled write: run, cross, program, retire
	pageVictim                // a dirty victim's write-back: run, program, retire
	pageFill                  // a read miss's cache fill: off flash
)

// page is one logical page's trip through the transaction queue (a
// scheduled write or a dirty-victim write-back) or a read miss's cache
// fill. It is recycled when its last callback starts: written, flushed or
// fill. A record serves every use with the same two callbacks, bound on
// the first use that needs each: a fill needs only onStep.
type page struct {
	n        *NVDIMM
	q        *request // nil for a victim write-back
	lpn      int64
	use      pageUse
	crossing bool   // a scheduled write's data is on the channel
	opDone   func() // the scheduler's completion for this page's program

	onRun  func(opDone func()) // bound: the scheduler dispatched the page
	onStep func()              // bound: the page's current step finished
}

// run starts a dispatched page. A scheduled write moves its data over the
// shared channel before programming it; a victim's data is already in the
// device, so it programs at once.
func (p *page) run(opDone func()) {
	if p.use == pageVictim {
		p.n.ftl.Write(p.lpn, opDone)
		return
	}
	p.opDone = opDone
	p.crossing = true
	p.n.pageCrossing(p.q.per, p.onStep)
}

// step runs the callback of whatever the page was waiting for: its data
// crossing the channel, the scheduler retiring it, or its flash read.
func (p *page) step() {
	switch {
	case p.crossing:
		p.crossing = false
		p.n.ftl.Write(p.lpn, p.opDone)
	case p.use == pageWrite:
		p.written()
	case p.use == pageVictim:
		p.flushed()
	default:
		p.fill()
	}
}

// written runs when the scheduler retires the page, programmed or (a
// stale migrated write under Policy Two) discarded. A write-through page
// leaves a clean copy in the buffer cache.
func (p *page) written() {
	n, q, lpn := p.n, p.q, p.lpn
	n.putPage(p)
	if q.r.Class != trace.ClassMigrated {
		n.cacheInsert(lpn, false)
	}
	q.pageDone()
}

func (p *page) flushed() {
	n := p.n
	n.putPage(p)
	n.pendingFlush--
	n.drainStalls()
}

// fill caches a page read from flash, then sends it to the controller.
func (p *page) fill() {
	n, q, lpn := p.n, p.q, p.lpn
	n.putPage(p)
	n.cacheInsert(lpn, false)
	q.crossPage()
}

// crossing is one page transfer waiting for the shared channel. It is
// recycled at its grant, once the hold timer that runs fn is scheduled.
type crossing struct {
	n      *NVDIMM
	issued sim.Time
	hold   sim.Time
	fn     func()

	onGrant func(start sim.Time) // bound: the channel is ours
}

func (c *crossing) grant(start sim.Time) {
	n, hold, fn := c.n, c.hold, c.fn
	n.Metrics().AddContention((start - c.issued).Micros())
	n.putCrossing(c)
	n.eng.Schedule(hold, fn)
}

func (n *NVDIMM) getRequest() *request {
	q := n.freeRequests.Get()
	if q.n == nil {
		q.n = n
		q.onPage = q.pageDone
		q.onFlash = q.crossPage
	}
	return q
}

func (n *NVDIMM) putRequest(q *request) {
	q.r, q.done = nil, nil
	n.freeRequests.Put(q)
}

// getPage takes a page record for use, binding the callbacks that use
// needs if the record lacks them.
func (n *NVDIMM) getPage(q *request, lpn int64, use pageUse) *page {
	p := n.freePages.Get()
	p.n, p.q, p.lpn, p.use, p.crossing = n, q, lpn, use, false
	if p.onStep == nil {
		p.onStep = p.step
	}
	if use != pageFill && p.onRun == nil {
		p.onRun = p.run
	}
	return p
}

func (n *NVDIMM) putPage(p *page) {
	p.q, p.opDone = nil, nil
	n.freePages.Put(p)
}

func (n *NVDIMM) getCrossing() *crossing {
	c := n.freeCrossings.Get()
	if c.n == nil {
		c.n = n
		c.onGrant = c.grant
	}
	return c
}

func (n *NVDIMM) putCrossing(c *crossing) {
	c.fn = nil
	n.freeCrossings.Put(c)
}
