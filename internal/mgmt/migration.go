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
	// copyRetryLimit is how many attempts each copy chunk gets before the
	// whole migration aborts and unwinds.
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
// aborts the whole migration: redirection is switched off, and the engine
// walks the bitmap copying migrated blocks *back* to the source, leaving
// the VMDK fully consistent at its original location.
type Migration struct {
	mgr *Manager
	v   *VMDK
	src *Datastore
	dst *Datastore

	cursor    int64 // next block index to consider
	inflight  int
	paused    bool // cost/benefit said "not now"
	completed bool
	aborting  bool // unwinding back to the source
	// evac marks a quarantine evacuation: cost/benefit gating is skipped
	// (getting off a failing store is not optional).
	evac bool

	abortCursor int64 // next block index the copy-back scan considers

	copiedBytes int64
	startedAt   sim.Time
	finishedAt  sim.Time

	free sim.FreeList[chunk] // recycled forward-copy chunks
}

// chunk is one forward-copy chunk in flight: its blocks, its attempt
// number and the source read and destination write it submits, held by
// value. A chunk is taken by nextChunk and recycled when it leaves
// flight (copied, emptied by redirection, dropped by an unwind, or out
// of retries), just before the pump that may reuse it; the next chunk
// reuses its block buffer. Its callbacks are bound on first use.
type chunk struct {
	g       *Migration
	blocks  []int64
	attempt int
	read    trace.IORequest
	write   trace.IORequest

	onRead     func(*trace.IORequest) // bound: the source read completed
	onTransfer func(error)            // bound: the network transfer completed
	onWrite    func(*trace.IORequest) // bound: the destination write completed
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
	jn := g.mgr.journal
	if jn == nil || len(blocks) == 0 {
		return
	}
	start, n := blocks[0], int64(1)
	for _, b := range blocks[1:] {
		if b == start+n {
			n++
			continue
		}
		jn.appendLazy(JournalRecord{Kind: kind, VMDK: g.v.ID, Block: start, Count: n})
		start, n = b, 1
	}
	jn.appendLazy(JournalRecord{Kind: kind, VMDK: g.v.ID, Block: start, Count: n})
}

// pump keeps CopyDepth chunks in flight.
func (g *Migration) pump() {
	if g.completed {
		return
	}
	if g.aborting {
		g.pumpAbort()
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

// nextChunk collects the next run of unmigrated blocks, up to chunkBytes,
// into a chunk at attempt 0, or returns nil when the cursor finds none.
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
	blocks := c.blocks[:0]
	for g.cursor < g.v.Blocks() && int64(len(blocks)) < maxBlocks {
		b := g.cursor
		g.cursor++
		if g.v.blockMigrated(b) {
			if len(blocks) > 0 {
				break // keep chunks contiguous
			}
			continue
		}
		blocks = append(blocks, b)
	}
	c.blocks, c.attempt = blocks, 0
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

// attemptChunk runs one forward-copy attempt: source read → cross-node
// transfer → destination write, marking blocks migrated on success. Any
// stage failure retries the chunk with backoff; exhausting the budget
// aborts the migration. Blocks that a redirected write migrates while the
// copy is in flight are detected at write time and not overwritten (the
// §5.3.1 same-location discard handles the device-level race; here the
// block simply stays marked). The caller has already counted the chunk in
// g.inflight.
func (c *chunk) attemptChunk() {
	g := c.g
	// Redirected writes may have satisfied blocks while we backed off;
	// re-filter so retries shrink instead of re-copying redirected data.
	live := c.blocks[:0]
	for _, b := range c.blocks {
		if !g.v.blockMigrated(b) {
			live = append(live, b)
		}
	}
	c.blocks = live
	if len(live) == 0 || g.completed || g.aborting {
		c.leave()
		return
	}
	c.read = trace.IORequest{
		Op:     trace.OpRead,
		Offset: g.v.srcBase + c.blocks[0]*BlockSize,
		Size:   c.bytes(),
		Class:  g.class(),
		VMDK:   g.v.ID,
	}
	g.src.Submit(&c.read, c.onRead)
}

// bytes returns the chunk's copy size.
func (c *chunk) bytes() int64 { return int64(len(c.blocks)) * BlockSize }

// fail retries the chunk after a stage failure, or, with the retry budget
// spent, takes it out of flight and aborts the migration.
func (c *chunk) fail(stage string, err error) {
	g := c.g
	g.mgr.stats.CopyRetries++
	if c.attempt+1 >= copyRetryLimit {
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
	if c.g.completed || c.g.aborting {
		c.leave()
		return
	}
	c.attempt++
	c.attemptChunk()
}

func (c *chunk) readDone(r *trace.IORequest) {
	if r.Err != nil {
		c.fail("source read", r.Err)
		return
	}
	g := c.g
	if g.src.Node != g.dst.Node && g.mgr.network != nil {
		g.mgr.network.Transfer(g.src.Node, g.dst.Node, c.bytes(), c.onTransfer)
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

// writeOut submits the chunk's destination write.
func (c *chunk) writeOut() {
	g := c.g
	c.write = trace.IORequest{
		Op:     trace.OpWrite,
		Offset: g.v.dstBase + c.blocks[0]*BlockSize,
		Size:   c.bytes(),
		Class:  g.class(),
		VMDK:   g.v.ID,
	}
	g.dst.Submit(&c.write, c.onWrite)
}

func (c *chunk) writeDone(r *trace.IORequest) {
	if r.Err != nil {
		c.fail("destination write", r.Err)
		return
	}
	g := c.g
	if g.aborting || g.completed {
		// The unwind started while this chunk was in flight: leave its
		// blocks unmarked so the source stays authoritative for them.
		c.leave()
		return
	}
	for _, b := range c.blocks {
		g.v.markMigrated(b)
	}
	g.journalRuns(JournalProgress, c.blocks)
	g.copiedBytes += c.bytes()
	g.mgr.stats.BytesCopied += c.bytes()
	c.leave()
}

// abort begins the clean unwind after the retry budget is exhausted:
// redirection stops, fresh writes land on the source, and migrated blocks
// copy back from the destination. Forward chunks still in flight complete
// harmlessly — their blocks stay bitmap-unmarked, so the source remains
// authoritative for them.
func (g *Migration) abort(reason string) {
	if g.completed || g.aborting {
		return
	}
	g.aborting = true
	g.paused = false
	g.mgr.stats.MigrationsAborted++
	g.v.beginAbort()
	if g.mgr.journal != nil {
		g.mgr.journal.appendSync(JournalRecord{Kind: JournalAbort, VMDK: g.v.ID, Detail: reason})
	}
	g.abortCursor = 0
	g.mgr.logDecision(Decision{At: g.mgr.eng.Now(), Kind: DecisionAbort, Stage: StageExecute, VMDK: g.v.ID,
		Src: g.src.Dev.Name(), Dst: g.dst.Dev.Name(),
		Detail: "unwinding: " + reason})
	g.pumpAbort()
}

// pumpAbort keeps CopyDepth copy-back chunks in flight. The unwind ignores
// the copy gate — a half-aborted VMDK must not linger on a possibly
// failing destination.
func (g *Migration) pumpAbort() {
	if g.completed {
		return
	}
	for g.inflight < g.mgr.cfg.CopyDepth {
		blocks := g.nextAbortChunk()
		if blocks == nil {
			break
		}
		g.inflight++
		g.attemptAbortChunk(blocks, 0)
	}
	g.maybeFinishAbort()
}

// nextAbortChunk collects the next contiguous run of *migrated* blocks —
// the ones that must move back to the source.
func (g *Migration) nextAbortChunk() []int64 {
	maxBlocks := int64(chunkBytes / BlockSize)
	var blocks []int64
	for g.abortCursor < g.v.Blocks() && int64(len(blocks)) < maxBlocks {
		b := g.abortCursor
		g.abortCursor++
		if !g.v.blockMigrated(b) {
			if len(blocks) > 0 {
				break // keep chunks contiguous
			}
			continue
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		return nil
	}
	return blocks
}

// attemptAbortChunk copies migrated blocks back: destination read →
// cross-node transfer → source write → clear bitmap bits. Copy-back
// retries indefinitely with clamped backoff: the unwind must eventually
// complete, and fault episodes are finite (the engine watchdog bounds a
// run where they are not). The caller has already counted the chunk in
// g.inflight.
func (g *Migration) attemptAbortChunk(blocks []int64, attempt int) {
	// Abort-time writes may have pulled blocks back to the source already.
	live := blocks[:0]
	for _, b := range blocks {
		if g.v.blockMigrated(b) {
			live = append(live, b)
		}
	}
	if len(live) == 0 || g.completed {
		g.inflight--
		g.pumpAbort()
		return
	}
	blocks = live
	first := blocks[0]
	n := int64(len(blocks))
	retry := func(stage string, err error) {
		g.mgr.stats.CopyRetries++
		g.mgr.eng.After(g.backoff(attempt), func() {
			g.attemptAbortChunk(blocks, attempt+1)
		})
	}
	read := &trace.IORequest{
		Op:     trace.OpRead,
		Offset: g.v.dstBase + first*BlockSize,
		Size:   n * BlockSize,
		Class:  g.class(),
		VMDK:   g.v.ID,
	}
	g.dst.Submit(read, func(c *trace.IORequest) {
		if c.Err != nil {
			retry("destination read", c.Err)
			return
		}
		writeBack := func() {
			write := &trace.IORequest{
				Op:     trace.OpWrite,
				Offset: g.v.srcBase + first*BlockSize,
				Size:   n * BlockSize,
				Class:  g.class(),
				VMDK:   g.v.ID,
			}
			g.src.Submit(write, func(c *trace.IORequest) {
				if c.Err != nil {
					retry("source write", c.Err)
					return
				}
				for _, b := range blocks {
					g.v.markUnmigrated(b)
				}
				g.journalRuns(JournalRevert, blocks)
				g.inflight--
				g.pumpAbort()
			})
		}
		if g.src.Node != g.dst.Node && g.mgr.network != nil {
			g.mgr.network.Transfer(g.dst.Node, g.src.Node, n*BlockSize, func(err error) {
				if err != nil {
					retry("network transfer", err)
					return
				}
				writeBack()
			})
		} else {
			writeBack()
		}
	})
}

// maybeFinishAbort releases the destination once every block is back on
// the source and no copy-back chunk is in flight.
func (g *Migration) maybeFinishAbort() {
	if g.completed || g.inflight > 0 {
		return
	}
	if g.v.MigratedBlocks() > 0 {
		if g.abortCursor >= g.v.Blocks() {
			// In-flight forward chunks may have marked blocks behind the
			// copy-back scan; rescan for them.
			g.abortCursor = 0
			g.pumpAbort()
		}
		return
	}
	g.completed = true
	g.finishedAt = g.mgr.eng.Now()
	g.v.finishAbort()
	g.dst.releaseExtent(g.v.Size)
	g.mgr.migrationAborted(g)
}

// maybeFinish commits the migration once every block lives at the
// destination and no chunk is in flight.
func (g *Migration) maybeFinish() {
	if g.completed || g.aborting || g.inflight > 0 {
		return
	}
	if g.v.MigratedBlocks() < g.v.Blocks() {
		if g.cursor >= g.v.Blocks() && !g.paused {
			// The cursor passed blocks that redirection has not written;
			// rescan for the stragglers.
			g.cursor = 0
			if g.nextChunkPeek() {
				g.pump()
			}
		}
		return
	}
	g.completed = true
	g.finishedAt = g.mgr.eng.Now()
	src := g.src
	g.v.finishMigration()
	src.evict(g.v)
	g.dst.adopt(g.v)
	src.releaseExtent(g.v.Size)
	g.mgr.migrationDone(g)
}

// nextChunkPeek reports whether unmigrated blocks remain without moving
// the cursor permanently.
func (g *Migration) nextChunkPeek() bool {
	for b := int64(0); b < g.v.Blocks(); b++ {
		if !g.v.blockMigrated(b) {
			return true
		}
	}
	return false
}
