// Package ssd models the PCIe solid-state drive of Table 4: the same NAND
// array and page-level FTL as the NVDIMM, but attached through a dedicated
// PCIe 2.0 ×8 link (4096 MB/s) instead of the shared memory channel — so
// SSD latency is immune to memory-bus contention, which is exactly why the
// paper's management layer treats it differently from the NVDIMM (Eq. 5).
package ssd

import (
	"repro/internal/device"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/pagetab"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Link and stack constants.
const (
	// LinkBandwidth is the PCIe 2.0 ×8 payload bandwidth (Table 4).
	LinkBandwidth = int64(4096) * 1000 * 1000 // bytes/sec
	// ReadOverhead is the host I/O-stack plus device firmware latency on
	// the synchronous read path. Chosen so read latency lands in the
	// Table 1 PCIe-SSD ballpark (~400 µs loaded, vs ~150 µs NVDIMM).
	ReadOverhead = 250 * sim.Microsecond
	// WriteOverhead is the (much cheaper) acknowledged-at-buffer write
	// path overhead (Table 1: ~15 µs writes).
	WriteOverhead = 12 * sim.Microsecond
	// maxPendingFlush bounds the dirty backlog before writes stall.
	maxPendingFlush = 256
)

// linkTime returns PCIe occupancy for n bytes.
func linkTime(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	t := sim.Time(float64(n) / float64(LinkBandwidth) * 1e9)
	if t < 1 {
		t = 1
	}
	return t
}

// Config parameterizes an SSD.
type Config struct {
	Name      string
	Capacity  int64
	Flash     flash.Config
	NumBlocks int
}

// DefaultConfig returns a Table 4-shaped SSD scaled to the simulated
// flash footprint.
func DefaultConfig(name string, capacity int64, numBlocks int) Config {
	return Config{
		Name:      name,
		Capacity:  capacity,
		Flash:     flash.DefaultConfig(),
		NumBlocks: numBlocks,
	}
}

// SSD is the device.
type SSD struct {
	device.Base
	eng *sim.Engine
	ftl *ftl.FTL

	linkBusyUntil sim.Time
	pendingFlush  int
	stalls        []*request // writes waiting out flush backpressure
	outstanding   int

	// Free lists of the records below; each SSD owns its own.
	freeRequests sim.FreeList[request]
	freeFlushes  sim.FreeList[flush]
	// bufferResident counts, per LPN, the acknowledged writes whose pages
	// have not reached flash yet, so reads of freshly written data are
	// served from the buffer. An LPN leaves when its count drops to zero.
	bufferResident pagetab.Table[int32]
}

var _ device.Device = (*SSD)(nil)

// New builds an SSD.
func New(eng *sim.Engine, cfg Config) *SSD {
	return &SSD{
		Base: device.NewBase(cfg.Name, device.KindSSD, cfg.Capacity),
		eng:  eng,
		ftl:  ftl.New(flash.New(eng, cfg.Flash), cfg.NumBlocks),
	}
}

// RegisterTelemetry exposes the SSD under prefix (e.g. "node0.ssd."):
// device metrics plus write-buffer backlog and FTL/GC state.
func (s *SSD) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	s.Metrics().RegisterTelemetry(reg, prefix)
	reg.Gauge(prefix+"pending_flush", func() float64 { return float64(s.pendingFlush) })
	reg.Gauge(prefix+"outstanding", func() float64 { return float64(s.outstanding) })
	reg.Gauge(prefix+"free_space_ratio", s.FreeSpaceRatio)
	reg.Gauge(prefix+"ftl.gc_runs", func() float64 { return float64(s.ftl.Stats().GCRuns) })
	reg.Gauge(prefix+"ftl.gc_writes", func() float64 { return float64(s.ftl.Stats().GCWrites) })
	reg.Gauge(prefix+"ftl.erases", func() float64 { return float64(s.ftl.Stats().Erases) })
	reg.Gauge(prefix+"ftl.free_blocks", func() float64 { return float64(s.ftl.FreeBlocks()) })
	reg.Gauge(prefix+"ftl.write_amp", s.ftl.WriteAmplification)
}

// FreeSpaceRatio reports the tighter of management and FTL free space.
func (s *SSD) FreeSpaceRatio() float64 {
	mgmt := s.Base.FreeSpaceRatio()
	phys := s.ftl.FreeSpaceRatio()
	if phys < mgmt {
		return phys
	}
	return mgmt
}

// acquireLink serializes transfers on the PCIe link.
func (s *SSD) acquireLink(bytes int64, fn func()) {
	hold := linkTime(bytes)
	start := s.eng.Now()
	if s.linkBusyUntil > start {
		start = s.linkBusyUntil
	}
	s.linkBusyUntil = start + hold
	s.eng.At(start+hold, fn)
}

// pagesOf returns the first LPN a request touches and how many
// consecutive pages it spans (at least one).
func (s *SSD) pagesOf(r *trace.IORequest) (first int64, count int) {
	ps := s.ftl.PageSize()
	first = r.Offset / ps
	if r.Size <= 0 {
		return first, 1
	}
	return first, int((r.Offset+r.Size-1)/ps-first) + 1
}

// request is one submitted I/O from Submit to completion. Its steps are
// bound once, on the record's first use; complete recycles it just before
// done runs, so a done that submits the next request may reuse it.
type request struct {
	s         *SSD
	r         *trace.IORequest
	done      device.Completion
	remaining int // read pages not yet off flash

	onRead     func() // bound: read overhead paid → fetch the pages
	onWrite    func() // bound: write overhead paid → cross the link
	onFail     func() // bound: failure overhead paid → cross the link
	onPage     func() // bound: one read page is off flash
	onComplete func() // bound: the last transfer crossed the link
	onBuffered func() // bound: write data crossed the link
}

// flush is one acknowledged page on its way from the write buffer to
// flash. It is recycled when the program completes.
type flush struct {
	s   *SSD
	lpn int64

	onFlushed func() // bound: the page is programmed
}

// Submit implements device.Device.
func (s *SSD) Submit(r *trace.IORequest, done device.Completion) {
	r.Issue = s.eng.Now()
	s.outstanding++
	q := s.freeRequests.Get()
	if q.s == nil {
		q.s = s
		q.onRead = q.read
		q.onWrite = q.write
		q.onFail = q.fail
		q.onPage = q.pageDone
		q.onComplete = q.complete
		q.onBuffered = q.bufferAck
	}
	q.r, q.done = r, done
	if r.Err != nil {
		// Pre-marked failure (fault injection): the request pays the host
		// stack overhead and PCIe link occupancy before reporting the error,
		// but never touches the write buffer or flash.
		ov := WriteOverhead
		if r.Op == trace.OpRead {
			ov = ReadOverhead
		}
		s.eng.Schedule(ov, q.onFail)
		return
	}
	if r.Op == trace.OpRead {
		// Overhead + flash reads (buffer-resident pages are free) + link
		// transfer out.
		s.eng.Schedule(ReadOverhead, q.onRead)
	} else {
		// Overhead + link transfer in + buffer ack; pages flush to flash
		// asynchronously with backpressure.
		s.eng.Schedule(WriteOverhead, q.onWrite)
	}
}

func (q *request) fail() { q.s.acquireLink(q.r.Size, q.onComplete) }

func (q *request) write() { q.s.acquireLink(q.r.Size, q.onBuffered) }

// read fetches every page the request spans; the last one off flash sends
// the data over the link.
func (q *request) read() {
	s := q.s
	first, count := s.pagesOf(q.r)
	q.remaining = count
	for lpn, end := first, first+int64(count); lpn < end; lpn++ {
		if _, ok := s.bufferResident.Get(lpn); ok {
			q.pageDone()
			continue
		}
		s.ftl.Read(lpn, q.onPage)
	}
}

func (q *request) pageDone() {
	q.remaining--
	if q.remaining == 0 {
		q.s.acquireLink(q.r.Size, q.onComplete)
	}
}

// complete stamps and reports the request, recycling its record first.
func (q *request) complete() {
	s, r, done := q.s, q.r, q.done
	q.r, q.done = nil, nil
	s.freeRequests.Put(q)
	r.Complete = s.eng.Now()
	s.outstanding--
	s.Metrics().Observe(r)
	if done != nil {
		done(r)
	}
}

// bufferAck lands write data in the buffer and acknowledges it, stalling
// while the flush backlog is full.
func (q *request) bufferAck() {
	s := q.s
	if s.pendingFlush >= maxPendingFlush {
		s.stalls = append(s.stalls, q)
		return
	}
	first, count := s.pagesOf(q.r)
	for lpn := first; lpn < first+int64(count); lpn++ {
		n, _ := s.bufferResident.Get(lpn)
		s.bufferResident.Put(lpn, n+1)
		s.pendingFlush++
		f := s.freeFlushes.Get()
		if f.s == nil {
			f.s = s
			f.onFlushed = f.flushed
		}
		f.lpn = lpn
		s.ftl.Write(lpn, f.onFlushed)
	}
	q.complete()
}

func (f *flush) flushed() {
	s, lpn := f.s, f.lpn
	s.freeFlushes.Put(f)
	s.pendingFlush--
	if n, _ := s.bufferResident.Get(lpn); n > 1 {
		s.bufferResident.Put(lpn, n-1)
	} else {
		s.bufferResident.Delete(lpn)
	}
	s.drainStalls()
}

func (s *SSD) drainStalls() {
	for len(s.stalls) > 0 && s.pendingFlush < maxPendingFlush {
		q := s.stalls[0]
		s.stalls = s.stalls[:copy(s.stalls, s.stalls[1:])]
		q.bufferAck()
	}
}
