// Package nvdimm models the flash-backed NVDIMM storage device of the
// paper (Table 4): a 16-channel NAND array behind a page-level FTL and an
// LRFU buffer cache, attached to a DDR memory channel it shares with a
// DRAM DIMM. Because I/O data moves over that shared channel, NVDIMM
// latency includes bus-contention delay — the effect the paper's
// performance model isolates (§4) and its architectural optimizations
// mitigate (§5.3).
//
// Request paths:
//
//	normal write  → bus transfer → buffer cache (complete) → async flush
//	               through the migration-aware scheduler to flash
//	migrated write → bus transfer → scheduler (ClassMigrated) → flash,
//	               bypassing the buffer cache
//	normal read   → cache hit: bus transfer only; miss: flash read → bus
//	               transfer → cache insert (may evict dirty victims)
//	migrated read → with bypassing (§5.3.2): flash → bus directly, no
//	               cache insertion or promotion
package nvdimm

import (
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/memsched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes an NVDIMM.
type Config struct {
	// Name is the device name.
	Name string
	// Capacity is the logical capacity presented to the storage manager.
	Capacity int64
	// Flash is the NAND geometry/timing (default Table 4).
	Flash flash.Config
	// NumBlocks is the number of physical flash blocks the FTL manages.
	// This is the *simulated* footprint; it may be scaled down from
	// Capacity for memory economy (LPNs fold into it).
	NumBlocks int
	// CacheBlocks is the buffer-cache capacity in pages (Table/motivation:
	// 400 MB at 4 KB pages → 102400 blocks).
	CacheBlocks int
	// Sched selects the memory-controller scheduling policy (§5.3.1).
	Sched memsched.Policy
	// SchedSlots bounds in-flight flash operations (default:
	// channels × chips, the array's true dispatch capability).
	SchedSlots int
	// BypassMigratedReads enables §5.3.2 buffer-cache bypassing.
	BypassMigratedReads bool
	// MaxPendingFlush is the dirty write-back backlog at which incoming
	// buffered writes stall (write-cliff backpressure).
	MaxPendingFlush int
	// WriteThrough sends normal/persistent writes through the scheduler
	// to flash synchronously (completion at program time) instead of
	// absorbing them in the buffer cache. This is the persistent-store
	// configuration of the §5.3.1 scheduling experiments, where barrier
	// ordering must bind write latency.
	WriteThrough bool
	// DAX enables the byte-addressable access path the paper's conclusion
	// anticipates ("we expect better results ... with DAX"): requests
	// skip the block-layer synchronization buffer and move exactly the
	// bytes asked for instead of whole pages. Flash-backed misses still
	// pay flash latencies.
	DAX bool
}

// DefaultConfig returns the Table 4 NVDIMM scaled to the given simulated
// flash footprint. capacity is the logical capacity advertised to the
// manager; numBlocks the simulated physical blocks.
func DefaultConfig(name string, capacity int64, numBlocks int) Config {
	return Config{
		Name:            name,
		Capacity:        capacity,
		Flash:           flash.DefaultConfig(),
		NumBlocks:       numBlocks,
		CacheBlocks:     102400, // 400 MB of 4 KB pages
		Sched:           memsched.Baseline(),
		SchedSlots:      0,
		MaxPendingFlush: 256,
	}
}

// NVDIMM is the device.
type NVDIMM struct {
	device.Base
	eng     *sim.Engine
	channel *bus.Channel
	ftl     *ftl.FTL
	cache   *cache.LRFU
	sched   *memsched.Scheduler
	cfg     Config

	pendingFlush int
	stalls       []*request // buffered writes waiting out flush backpressure
	outstanding  int

	// Free lists of the records in records.go. Each device owns its own,
	// so parallel runs share no pool.
	freeRequests  sim.FreeList[request]
	freePages     sim.FreeList[page]
	freeCrossings sim.FreeList[crossing]

	// Counters for experiments.
	bypassedReads  uint64
	pollutedReads  uint64
	stalledWrites  uint64
	flushedVictims uint64
}

var _ device.Device = (*NVDIMM)(nil)

// New builds an NVDIMM on the engine, attached to the shared channel.
func New(eng *sim.Engine, ch *bus.Channel, cfg Config) *NVDIMM {
	if cfg.SchedSlots <= 0 {
		cfg.SchedSlots = cfg.Flash.NumChannels * cfg.Flash.ChipsPerChannel
	}
	if cfg.MaxPendingFlush <= 0 {
		cfg.MaxPendingFlush = 256
	}
	n := &NVDIMM{
		Base:    device.NewBase(cfg.Name, device.KindNVDIMM, cfg.Capacity),
		eng:     eng,
		channel: ch,
		ftl:     ftl.New(flash.New(eng, cfg.Flash), cfg.NumBlocks),
		cache:   cache.NewLRFU(cfg.CacheBlocks, cache.DefaultLambda),
		sched:   memsched.New(eng, cfg.Sched, cfg.SchedSlots),
		cfg:     cfg,
	}
	return n
}

// Cache exposes the buffer cache for experiment instrumentation.
func (n *NVDIMM) Cache() *cache.LRFU { return n.cache }

// DropCache empties the DRAM buffer cache without write-backs — the
// power-loss teardown (DESIGN.md §13). The NVDIMM's flash media and FTL
// state persist (that is what makes it an NVDIMM); dirty cache lines are
// saved by the flush-on-fail circuitry, so no data is lost — the modeled
// cost of a crash is the cold cache the restarted node serves from.
func (n *NVDIMM) DropCache() { n.cache.Invalidate() }

// FTL exposes the translation layer for instrumentation.
func (n *NVDIMM) FTL() *ftl.FTL { return n.ftl }

// Scheduler exposes the transaction-queue scheduler.
func (n *NVDIMM) Scheduler() *memsched.Scheduler { return n.sched }

// Barrier forwards a persistence barrier to the scheduler (§5.3.1).
func (n *NVDIMM) Barrier() { n.sched.Barrier() }

// RegisterTelemetry exposes the whole NVDIMM stack under prefix (e.g.
// "node0.nvdimm."): device metrics, buffer-cache counters, transaction-
// queue activity, FTL/GC state, and the NVDIMM-specific path counters.
func (n *NVDIMM) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	n.Metrics().RegisterTelemetry(reg, prefix)
	n.cache.Stats().RegisterTelemetry(reg, prefix+"cache.")
	n.sched.RegisterTelemetry(reg, prefix+"sched.")
	reg.Gauge(prefix+"bypassed_reads", func() float64 { return float64(n.bypassedReads) })
	reg.Gauge(prefix+"polluted_reads", func() float64 { return float64(n.pollutedReads) })
	reg.Gauge(prefix+"stalled_writes", func() float64 { return float64(n.stalledWrites) })
	reg.Gauge(prefix+"flushed_victims", func() float64 { return float64(n.flushedVictims) })
	reg.Gauge(prefix+"pending_flush", func() float64 { return float64(n.pendingFlush) })
	reg.Gauge(prefix+"outstanding", func() float64 { return float64(n.outstanding) })
	reg.Gauge(prefix+"free_space_ratio", n.FreeSpaceRatio)
	reg.Gauge(prefix+"ftl.gc_runs", func() float64 { return float64(n.ftl.Stats().GCRuns) })
	reg.Gauge(prefix+"ftl.gc_writes", func() float64 { return float64(n.ftl.Stats().GCWrites) })
	reg.Gauge(prefix+"ftl.erases", func() float64 { return float64(n.ftl.Stats().Erases) })
	reg.Gauge(prefix+"ftl.free_blocks", func() float64 { return float64(n.ftl.FreeBlocks()) })
	reg.Gauge(prefix+"ftl.write_amp", n.ftl.WriteAmplification)
}

// SetTracer enables request spans at the device boundary and operation
// spans in the transaction queue, on tracks trackPrefix+"io" and
// trackPrefix+"sched". The shared channel is traced separately via
// bus.Channel.SetTracer (it carries DRAM traffic too).
func (n *NVDIMM) SetTracer(tr *telemetry.Tracer, trackPrefix string) {
	n.Metrics().SetTracer(tr, trackPrefix+"io")
	n.sched.SetTracer(tr, trackPrefix+"sched")
}

// Prefill fills the FTL to the given ratio (free-space experiments).
func (n *NVDIMM) Prefill(ratio float64) {
	n.ftl.Prefill(ratio)
	n.SetUsed(int64(ratio * float64(n.Capacity())))
}

// FreeSpaceRatio reports the tighter of management-level and FTL-level
// free space, so GC pressure is visible to the performance model.
func (n *NVDIMM) FreeSpaceRatio() float64 {
	mgmt := n.Base.FreeSpaceRatio()
	phys := n.ftl.FreeSpaceRatio()
	if phys < mgmt {
		return phys
	}
	return mgmt
}

// pageSize returns the FTL page size.
func (n *NVDIMM) pageSize() int64 { return n.ftl.PageSize() }

// pagesOf returns the first logical page a request touches and how many
// consecutive pages it spans (at least one).
func (n *NVDIMM) pagesOf(r *trace.IORequest) (first int64, count int) {
	ps := n.pageSize()
	first = r.Offset / ps
	if r.Size <= 0 {
		return first, 1
	}
	return first, int((r.Offset+r.Size-1)/ps-first) + 1
}

// Submit implements device.Device.
func (n *NVDIMM) Submit(r *trace.IORequest, done device.Completion) {
	r.Issue = n.eng.Now()
	n.outstanding++
	q := n.newRequest(r, done)
	if r.Err != nil {
		// Pre-marked failure (fault injection): the request pays its channel
		// crossings — the device spent that long before reporting the error —
		// but commits nothing to the cache, FTL, or flash.
		n.crossPages(q)
		return
	}
	if r.Op == trace.OpRead {
		n.read(q)
		return
	}
	if r.Class == trace.ClassMigrated || n.cfg.WriteThrough {
		n.scheduledWrite(q)
		return
	}
	n.bufferedWrite(q)
}

// newRequest takes a request record for r from the free list.
func (n *NVDIMM) newRequest(r *trace.IORequest, done device.Completion) *request {
	q := n.getRequest()
	q.r, q.done = r, done
	q.first, q.pages = n.pagesOf(r)
	q.remaining = q.pages
	q.per = r.Size / int64(q.pages)
	if q.per <= 0 {
		q.per = 64
	}
	q.buffered = false
	return q
}

// pageCrossing reserves the shared channel for one page-sized data
// movement and invokes fn when the transfer completes, recording the
// queuing delay as contention. NVDIMM block I/O crosses the DDR channel
// page by page (the device is memory-mapped), so every page transfer
// competes with DRAM demand traffic — the §2/§3 contention mechanism.
func (n *NVDIMM) pageCrossing(bytes int64, fn func()) {
	hold := bus.TransferTime(bytes)
	if !n.cfg.DAX {
		// The block interface moves whole pages through the
		// synchronization buffer; DAX loads/stores skip both.
		if ps := n.pageSize(); bytes < ps {
			hold = bus.TransferTime(ps)
		}
		hold += bus.SyncBufferLatency
	}
	c := n.getCrossing()
	c.issued = n.eng.Now()
	c.hold = hold
	c.fn = fn
	n.channel.Acquire(bus.PriIO, hold, c.onGrant)
}

// crossPages moves each of the request's pages over the channel; the last
// crossing to finish completes the request (or, for a buffered write,
// lands it in the buffer cache).
func (n *NVDIMM) crossPages(q *request) {
	for i, pages := 0, q.pages; i < pages; i++ {
		n.pageCrossing(q.per, q.onPage)
	}
}

// complete stamps and reports the request. The record is recycled before
// done runs, so a done that submits the next request may reuse it.
func (n *NVDIMM) complete(q *request) {
	r, done := q.r, q.done
	n.putRequest(q)
	r.Complete = n.eng.Now()
	n.outstanding--
	n.Metrics().Observe(r)
	if done != nil {
		done(r)
	}
}

// --- write paths ---

// bufferedWrite is the normal/persistent write path: data crosses the bus
// into the buffer cache; the write completes on insertion. Dirty victims
// (and eventually the written pages themselves, on later eviction) flush
// to flash through the scheduler.
func (n *NVDIMM) bufferedWrite(q *request) {
	q.buffered = true
	n.crossPages(q)
}

// bufferInsert lands transferred write data in the buffer cache, stalling
// when the dirty write-back backlog is saturated (the write cliff).
func (n *NVDIMM) bufferInsert(q *request) {
	if n.pendingFlush >= n.cfg.MaxPendingFlush {
		n.stalledWrites++
		n.stalls = append(n.stalls, q)
		return
	}
	for lpn, end := q.first, q.first+int64(q.pages); lpn < end; lpn++ {
		n.cacheInsert(lpn, true)
	}
	n.complete(q)
}

// cacheInsert caches lpn and schedules the write-back of a dirty victim.
func (n *NVDIMM) cacheInsert(lpn int64, dirty bool) {
	v, evicted := n.cache.Insert(lpn, dirty)
	if !evicted || !v.Dirty {
		return
	}
	n.flushedVictims++
	n.pendingFlush++
	p := n.getPage(nil, v.Block, pageVictim)
	n.sched.EnqueueWrite(v.Block, trace.ClassPersistent, p.onRun, p.onStep)
}

// drainStalls resumes stalled writes once backpressure clears.
func (n *NVDIMM) drainStalls() {
	for len(n.stalls) > 0 && n.pendingFlush < n.cfg.MaxPendingFlush {
		q := n.stalls[0]
		n.stalls = n.stalls[:copy(n.stalls, n.stalls[1:])]
		n.bufferInsert(q)
	}
}

// scheduledWrite serves the two write paths that go through the
// transaction queue page by page; each scheduled operation moves its page
// over the shared channel before programming it, and the request
// completes when every page is done.
//
//   - Migrated writes (destination side of a migration) are tagged
//     ClassMigrated so Policy One/Two apply, and never touch the buffer
//     cache; Policy Two may discard a stale one without running it.
//   - Write-through is the persistent-store path: each page enters the
//     queue immediately (so a barrier issued right after this request
//     delimits it correctly), completion comes at program time, and a
//     clean copy lands in the buffer cache so later reads hit.
//
// The request cannot complete before its last page is enqueued, and the
// loop does not touch q after that, so a completion that reuses the
// record cannot disturb it.
func (n *NVDIMM) scheduledWrite(q *request) {
	class := trace.ClassPersistent
	if q.r.Class == trace.ClassMigrated {
		class = trace.ClassMigrated
	}
	for lpn, end := q.first, q.first+int64(q.pages); lpn < end; lpn++ {
		p := n.getPage(q, lpn, pageWrite)
		n.sched.EnqueueWrite(lpn, class, p.onRun, p.onStep)
	}
}

// --- read path ---

// read serves reads. Cache hits cost only the bus transfer; misses read
// flash and (for non-bypassed requests) populate the cache. Every page
// then moves to the memory controller over the shared channel as soon as
// its data is available.
func (n *NVDIMM) read(q *request) {
	migrated := q.r.Class == trace.ClassMigrated
	bypass := migrated && n.cfg.BypassMigratedReads
	for lpn, end := q.first, q.first+int64(q.pages); lpn < end; lpn++ {
		if bypass {
			// §5.3.2: serve from cache if resident (no promotion), else
			// straight from flash with no insertion.
			n.bypassedReads++
			if n.cache.Contains(lpn) {
				q.crossPage()
			} else {
				n.ftl.Read(lpn, q.onFlash)
			}
			continue
		}
		if n.cache.Lookup(lpn) {
			q.crossPage()
			continue
		}
		if migrated {
			n.pollutedReads++
		}
		n.ftl.Read(lpn, n.getPage(q, lpn, pageFill).onStep)
	}
}
