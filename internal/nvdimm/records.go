package nvdimm

import (
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The request path keeps its in-flight state in three kinds of records,
// each pooled on a per-device free list with its callbacks bound once,
// when the record is created. A steady stream of requests therefore
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
	next      *request

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

// page is one logical page's trip through the transaction queue (a
// scheduled write or a dirty-victim write-back) or a read miss's cache
// fill. It is recycled when its last callback starts: written, flushed or
// fill.
type page struct {
	n      *NVDIMM
	q      *request // nil for a victim write-back
	lpn    int64
	opDone func() // the scheduler's completion for this page's program
	next   *page

	onRun     func(opDone func()) // bound: scheduled write dispatched
	onCrossed func()              // bound: its data crossed the channel
	onWritten func()              // bound: the scheduler retired it
	onFlush   func(opDone func()) // bound: victim write-back dispatched
	onFlushed func()              // bound: the scheduler retired it
	onFill    func()              // bound: read-miss data is off flash
}

// run moves the page over the shared channel before programming it.
func (p *page) run(opDone func()) {
	p.opDone = opDone
	p.n.pageCrossing(p.q.per, p.onCrossed)
}

func (p *page) crossed() { p.n.ftl.Write(p.lpn, p.opDone) }

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

func (p *page) flush(opDone func()) { p.n.ftl.Write(p.lpn, opDone) }

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
	next   *crossing

	onGrant func(start sim.Time) // bound: the channel is ours
}

func (c *crossing) grant(start sim.Time) {
	n, hold, fn := c.n, c.hold, c.fn
	n.Metrics().AddContention((start - c.issued).Micros())
	n.putCrossing(c)
	n.eng.Schedule(hold, fn)
}

func (n *NVDIMM) getRequest() *request {
	q := n.freeRequests
	if q == nil {
		q = &request{n: n}
		q.onPage = q.pageDone
		q.onFlash = q.crossPage
		return q
	}
	n.freeRequests = q.next
	q.next = nil
	return q
}

func (n *NVDIMM) putRequest(q *request) {
	q.r, q.done = nil, nil
	q.next = n.freeRequests
	n.freeRequests = q
}

func (n *NVDIMM) getPage(q *request, lpn int64) *page {
	p := n.freePages
	if p == nil {
		p = &page{n: n}
		p.onRun = p.run
		p.onCrossed = p.crossed
		p.onWritten = p.written
		p.onFlush = p.flush
		p.onFlushed = p.flushed
		p.onFill = p.fill
	} else {
		n.freePages = p.next
		p.next = nil
	}
	p.q, p.lpn = q, lpn
	return p
}

func (n *NVDIMM) putPage(p *page) {
	p.q, p.opDone = nil, nil
	p.next = n.freePages
	n.freePages = p
}

func (n *NVDIMM) getCrossing() *crossing {
	c := n.freeCrossings
	if c == nil {
		c = &crossing{n: n}
		c.onGrant = c.grant
		return c
	}
	n.freeCrossings = c.next
	c.next = nil
	return c
}

func (n *NVDIMM) putCrossing(c *crossing) {
	c.fn = nil
	c.next = n.freeCrossings
	n.freeCrossings = c
}
