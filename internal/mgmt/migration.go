package mgmt

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Copy-engine constants.
const (
	// chunkBytes is the migration copy granularity.
	chunkBytes = 256 << 10
	// copyRetryLimit is how many attempts each forward copy chunk gets
	// before the whole migration aborts and unwinds. Copy-back chunks
	// retry without limit.
	copyRetryLimit = 4
	// copyRetryBackoff is the delay before a chunk's first retry, doubling
	// each attempt (clamped at 64×).
	copyRetryBackoff = 500 * sim.Microsecond
)

// Migration is one in-flight VMDK move: a background copy engine that
// walks the bitmap, skipping blocks already satisfied by write
// redirection, with optional per-epoch cost/benefit gating (§5.2). Which
// of those mechanisms engage is decided by the scheme's Redirect and
// Gate choices.
//
// Every copy stage (source read, cross-node transfer, destination write)
// can fail under fault injection. A failed chunk retries with exponential
// backoff up to copyRetryLimit attempts; exhausting the budget
// aborts the whole migration: redirection is switched off, and the same
// engine turns around, walking the bitmap copying migrated blocks *back*
// to the source, leaving the VMDK fully consistent at its original
// location.
type Migration struct {
	mgr *Manager
	v   *VMDK
	src *Datastore
	dst *Datastore

	cursor    int64 // next block index the copy scan considers
	inflight  int
	paused    bool // cost/benefit said "not now"
	completed bool
	aborting  bool // unwinding back to the source
	// evac marks a quarantine evacuation: cost/benefit gating is skipped
	// (getting off a failing store is not optional).
	evac bool

	copiedBytes int64
	startedAt   sim.Time
	finishedAt  sim.Time

	free sim.FreeList[chunk] // recycled copy chunks
}

// chunk is one copy chunk in flight: its direction, its blocks, its
// attempt number and the read and write it submits, held by value. A
// forward chunk reads the source and writes the destination; a copy-back
// chunk (back, taken once the migration is aborting) reads the
// destination and writes the source. A chunk is taken by nextChunk and
// recycled when it leaves flight (copied, emptied by redirection, dropped
// by an unwind, or out of retries), just before the pump that may reuse
// it; the next chunk reuses its block buffer. Its callbacks are bound on
// first use.
type chunk struct {
	g       *Migration
	back    bool
	blocks  []int64
	attempt int
	read    trace.IORequest
	write   trace.IORequest

	onRead     func(*trace.IORequest) // bound: the read completed
	onTransfer func(error)            // bound: the network transfer completed
	onWrite    func(*trace.IORequest) // bound: the write completed
	onRetry    func()                 // bound: the retry backoff elapsed
}

func newMigration(m *Manager, v *VMDK, src, dst *Datastore) *Migration {
	return &Migration{mgr: m, v: v, src: src, dst: dst, startedAt: m.eng.Now()}
}

// mirroredBytes estimates bytes satisfied without copying.
func (g *Migration) mirroredBytes() int64 {
	return g.v.Blocks()*BlockSize - g.copiedBytes
}

// class returns the request class migration traffic carries, per the
// scheme's §5.3 tagging choice.
func (g *Migration) class() trace.Class {
	return g.mgr.scheme.MigratedClass()
}

// regate re-evaluates the cost/benefit gate with fresh epoch data (lazy
// migration only pauses the *copy*; write redirection continues always).
// Manager.plan calls it only under GateCopy. Evacuations and aborts are
// never gated: both are safety unwinds, not optimizations.
func (g *Migration) regate(perfs []StorePerf) {
	if g.completed || g.aborting || g.evac {
		return
	}
	var srcP, dstP *StorePerf
	for i := range perfs {
		if perfs[i].Store == g.src {
			srcP = &perfs[i]
		}
		if perfs[i].Store == g.dst {
			dstP = &perfs[i]
		}
	}
	if srcP == nil || dstP == nil {
		return
	}
	remaining := (g.v.Blocks() - g.v.MigratedBlocks()) * BlockSize
	cost, benefit := g.mgr.costBenefit(g.v, srcP, dstP, remaining)
	wasPaused := g.paused
	// §5.2: data are only migrated when the benefit is larger than the
	// cost. An idle system (zero measured cost) also permits progress so
	// migrations eventually finish.
	g.paused = cost > 0 && benefit <= cost
	if wasPaused && !g.paused {
		g.pump()
	}
}

// journalRuns records a bitmap change made by the copy engine as lazy
// journal appends, one per contiguous run — the retry-time live-filter
// can leave holes in a chunk's block list, and the journal's record
// format is runs, not arbitrary sets.
func (g *Migration) journalRuns(kind JournalKind, blocks []int64) {
	jn := &g.v.jn
	if len(blocks) == 0 {
		return
	}
	start, n := blocks[0], int64(1)
	for _, b := range blocks[1:] {
		if b == start+n {
			n++
			continue
		}
		jn.appendLazy(JournalRecord{Kind: kind, Block: start, Count: n})
		start, n = b, 1
	}
	jn.appendLazy(JournalRecord{Kind: kind, Block: start, Count: n})
}

// pump keeps CopyDepth chunks in flight, then checks whether the
// migration is done. An unwind is never paused: abort clears the gate and
// regate leaves an aborting migration alone, since a half-aborted VMDK
// must not linger on a possibly failing destination.
func (g *Migration) pump() {
	if g.completed {
		return
	}
	for !g.paused && g.inflight < g.mgr.cfg.CopyDepth {
		c := g.nextChunk()
		if c == nil {
			break
		}
		g.inflight++
		c.attemptChunk()
	}
	g.maybeFinish()
}

// nextChunk collects the next run of blocks still to copy, up to
// chunkBytes, into a chunk at attempt 0, or returns nil when the cursor
// finds none. A forward chunk takes unmigrated blocks; once the migration
// is aborting, a copy-back chunk takes migrated ones.
func (g *Migration) nextChunk() *chunk {
	maxBlocks := int64(chunkBytes / BlockSize)
	c := g.free.Get()
	if c.g == nil {
		c.g = g
		c.blocks = make([]int64, 0, maxBlocks)
		c.onRead = c.readDone
		c.onTransfer = c.transferDone
		c.onWrite = c.writeDone
		c.onRetry = c.retry
	}
	back := g.aborting
	blocks := c.blocks[:0]
	for g.cursor < g.v.Blocks() && int64(len(blocks)) < maxBlocks {
		b := g.cursor
		g.cursor++
		if g.v.blockMigrated(b) != back {
			if len(blocks) > 0 {
				break // keep chunks contiguous
			}
			continue
		}
		blocks = append(blocks, b)
	}
	c.back, c.blocks, c.attempt = back, blocks, 0
	if len(blocks) == 0 {
		g.free.Put(c)
		return nil
	}
	return c
}

// leave takes c out of flight and recycles it, then pumps the engine.
func (c *chunk) leave() {
	g := c.g
	g.free.Put(c)
	g.inflight--
	g.pump()
}

// backoff returns the retry delay before attempt n+1 (exponential from
// copyRetryBackoff, clamped at 64× the base).
func (g *Migration) backoff(attempt int) sim.Time {
	d := copyRetryBackoff
	for i := 0; i < attempt && i < 6; i++ {
		d *= 2
	}
	return d
}

// ends returns the store the chunk reads and the store it writes, each
// with the VMDK's base offset there.
func (c *chunk) ends() (from *Datastore, fromBase int64, to *Datastore, toBase int64) {
	g := c.g
	if c.back {
		return g.dst, g.v.dstBase, g.src, g.v.srcBase
	}
	return g.src, g.v.srcBase, g.dst, g.v.dstBase
}

// attemptChunk runs one copy attempt: read → cross-node transfer → write,
// then marks the blocks migrated (forward) or unmigrated (copy-back). Any
// stage failure retries the chunk with backoff (see fail). Blocks that a
// write moved to the chunk's target while it backed off are filtered out
// first, so retries shrink instead of re-copying: a redirected write
// migrates a block, an abort-time write pulls one back to the source. A
// redirected write that lands while the copy is in flight is detected at
// write time and not overwritten (the §5.3.1 same-location discard
// handles the device-level race; here the block simply stays marked). A
// chunk with nothing left to copy leaves flight, and so does a forward
// chunk once the migration unwinds or any chunk once it has completed.
// The caller has already counted the chunk in g.inflight.
func (c *chunk) attemptChunk() {
	g := c.g
	live := c.blocks[:0]
	for _, b := range c.blocks {
		if g.v.blockMigrated(b) == c.back {
			live = append(live, b)
		}
	}
	c.blocks = live
	if len(live) == 0 || g.completed || g.aborting && !c.back {
		c.leave()
		return
	}
	from, base, _, _ := c.ends()
	c.read = trace.IORequest{
		Op:     trace.OpRead,
		Offset: base + c.blocks[0]*BlockSize,
		Size:   c.bytes(),
		Class:  g.class(),
		VMDK:   g.v.ID,
	}
	from.Submit(&c.read, c.onRead)
}

// bytes returns the chunk's copy size.
func (c *chunk) bytes() int64 { return int64(len(c.blocks)) * BlockSize }

// fail counts a failed stage and retries the chunk after its backoff. A
// forward chunk whose retry budget is spent leaves flight instead and
// aborts the migration, naming the forward stage in the reason. A
// copy-back chunk retries until it lands: the unwind must eventually
// complete, and fault episodes are finite (the engine watchdog bounds a
// run where they are not).
func (c *chunk) fail(stage string, err error) {
	g := c.g
	g.mgr.stats.CopyRetries++
	if !c.back && c.attempt+1 >= copyRetryLimit {
		attempts := c.attempt + 1
		g.free.Put(c)
		g.inflight--
		if g.aborting || g.completed {
			g.pump()
		} else {
			g.abort(fmt.Sprintf("%s failed %d times: %v", stage, attempts, err))
		}
		return
	}
	g.mgr.eng.Schedule(g.backoff(c.attempt), c.onRetry)
}

// retry starts the chunk's next attempt once its backoff has elapsed.
func (c *chunk) retry() {
	c.attempt++
	c.attemptChunk()
}

func (c *chunk) readDone(r *trace.IORequest) {
	if r.Err != nil {
		c.fail("source read", r.Err)
		return
	}
	from, _, to, _ := c.ends()
	if from.Node != to.Node && c.g.mgr.network != nil {
		c.g.mgr.network.Transfer(from.Node, to.Node, c.bytes(), c.onTransfer)
		return
	}
	c.writeOut()
}

func (c *chunk) transferDone(err error) {
	if err != nil {
		c.fail("network transfer", err)
		return
	}
	c.writeOut()
}

// writeOut submits the chunk's write.
func (c *chunk) writeOut() {
	g := c.g
	_, _, to, base := c.ends()
	c.write = trace.IORequest{
		Op:     trace.OpWrite,
		Offset: base + c.blocks[0]*BlockSize,
		Size:   c.bytes(),
		Class:  g.class(),
		VMDK:   g.v.ID,
	}
	to.Submit(&c.write, c.onWrite)
}

func (c *chunk) writeDone(r *trace.IORequest) {
	if r.Err != nil {
		c.fail("destination write", r.Err)
		return
	}
	g := c.g
	switch {
	case c.back:
		// The blocks are on the source now, even if crash recovery has
		// replaced this migration: recovering an aborting migration
		// always rolls back too.
		for _, b := range c.blocks {
			g.v.markUnmigrated(b)
		}
		g.journalRuns(JournalRevert, c.blocks)
	case g.aborting || g.completed:
		// The unwind started while this forward chunk was in flight:
		// leave its blocks unmarked so the source stays authoritative
		// for them.
	default:
		for _, b := range c.blocks {
			g.v.markMigrated(b)
		}
		g.journalRuns(JournalProgress, c.blocks)
		g.copiedBytes += c.bytes()
		g.mgr.stats.BytesCopied += c.bytes()
	}
	c.leave()
}

// abort begins the clean unwind after the retry budget is exhausted:
// redirection stops, fresh writes land on the source, and the copy cursor
// restarts so copy-back chunks carry migrated blocks back from the
// destination. Forward chunks still in flight count against CopyDepth
// until they leave, and complete harmlessly: their blocks stay
// bitmap-unmarked, so the source remains authoritative for them.
func (g *Migration) abort(reason string) {
	if g.completed || g.aborting {
		return
	}
	g.aborting = true
	g.paused = false
	g.mgr.stats.MigrationsAborted++
	g.v.beginAbort()
	g.v.jn.appendSync(JournalRecord{Kind: JournalAbort})
	g.cursor = 0
	g.mgr.logDecision(Decision{At: g.mgr.eng.Now(), Kind: DecisionAbort, Stage: StageExecute, VMDK: g.v.ID,
		Src: g.src.Dev.Name(), Dst: g.dst.Dev.Name(),
		Detail: "unwinding: " + reason})
	g.pump()
}

// maybeFinish ends the migration once no chunk is in flight and every
// block is where the copy direction puts it: all at the destination
// commits the move; while aborting, all back on the source releases the
// destination. Until then, a cursor that has passed the end rescans from
// 0 for blocks left behind it (unwritten by redirection, or marked by a
// forward chunk that landed behind the copy-back scan), unless the copy
// gate is shut.
func (g *Migration) maybeFinish() {
	if g.completed || g.inflight > 0 {
		return
	}
	target := g.v.Blocks()
	if g.aborting {
		target = 0
	}
	if g.v.MigratedBlocks() != target {
		if g.cursor >= g.v.Blocks() && !g.paused {
			g.cursor = 0
			g.pump()
		}
		return
	}
	g.completed = true
	g.finishedAt = g.mgr.eng.Now()
	if g.aborting {
		g.v.finishAbort()
		g.dst.releaseExtent(g.v.Size)
		g.mgr.migrationAborted(g)
		return
	}
	src := g.src
	g.v.finishMigration()
	src.evict(g.v)
	g.dst.adopt(g.v)
	src.releaseExtent(g.v.Size)
	g.mgr.migrationDone(g)
}
