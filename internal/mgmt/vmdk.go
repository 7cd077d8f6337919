// Package mgmt implements the paper's §5 storage-management layer:
// datastores and VMDKs, initial data placement (Eq. 4), imbalance
// detection and candidate selection (Eq. 5, threshold τ), the migration
// executor with I/O mirroring, per-block bitmap, and cost/benefit gating
// (Eq. 6–7), and the baseline schemes BASIL, Pesto, and LightSRM the
// paper compares against.
package mgmt

import (
	"fmt"
	"strconv"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BlockSize is the migration bitmap granularity (§5.2: 4 KB blocks).
const BlockSize = 4096

// VMDK is a virtual machine disk image placed on (at most) two datastores
// during migration. It satisfies workload.Target: application I/O routes
// through it, and during a lazy migration the per-block bitmap decides
// whether a block lives at the source or the destination (§5.2).
type VMDK struct {
	ID   int
	Size int64

	src *Datastore // current primary location
	dst *Datastore // destination while migrating (nil otherwise)

	srcBase int64 // byte offset of this VMDK's extent on src
	dstBase int64 // byte offset on dst while migrating

	// bitmap: 1 bit per block; set = block lives at the destination.
	bitmap    []uint64
	migrated  int64 // blocks currently at the destination
	mirroring bool  // writes redirect to the destination (I/O mirroring)
	aborting  bool  // migration is unwinding back to the source

	// Requests this window (candidate selection reads it).
	windowRequests uint64
	// lastMoveEpoch records when this VMDK last migrated (hysteresis).
	lastMoveEpoch uint64

	// jn is the VMDK's migration journal, holding only the open
	// migration's records: while one is open, bitmap changes made by
	// application writes persist a record before the write acks
	// (DESIGN.md §13).
	jn Journal

	// spans holds the migration span names "vmdk<ID>" and
	// "vmdk<ID>!abort", built on the first traced migration.
	spans [2]string

	// free recycles the forward records of requests routed through v.
	free sim.FreeList[forward]
}

// forward is one request routed through a VMDK, from Submit to the
// datastore's completion: the clone rebased onto the datastore extent, the
// caller's request the result is copied back into, and for a journaled
// write the record-then-ack fields (guarded false: none). The record is
// recycled just before done runs, so a done that submits the next
// request may reuse it.
type forward struct {
	v     *VMDK
	clone trace.IORequest
	r     *trace.IORequest
	done  device.Completion

	guarded      bool
	epoch        uint64 // the journal's epoch at submit
	kind         JournalKind
	first, count int64 // blocks the journal record covers

	onDone device.Completion // bound: the datastore completed the clone
}

// spanName returns v's migration span name, the aborted one when abort
// is set.
func (v *VMDK) spanName(abort bool) string {
	if v.spans[0] == "" {
		v.spans[0] = "vmdk" + strconv.Itoa(v.ID)
		v.spans[1] = v.spans[0] + "!abort"
	}
	if abort {
		return v.spans[1]
	}
	return v.spans[0]
}

// newVMDK is created through Datastore.CreateVMDK / Manager.PlaceVMDK.
func newVMDK(id int, size int64, ds *Datastore, base int64) *VMDK {
	return &VMDK{ID: id, Size: size, src: ds, srcBase: base}
}

// Blocks returns the number of bitmap blocks covering the VMDK.
func (v *VMDK) Blocks() int64 { return (v.Size + BlockSize - 1) / BlockSize }

// Store returns the primary datastore.
func (v *VMDK) Store() *Datastore { return v.src }

// Migrating reports whether a migration is in progress.
func (v *VMDK) Migrating() bool { return v.dst != nil }

// MigratedBlocks returns how many blocks live at the destination.
func (v *VMDK) MigratedBlocks() int64 { return v.migrated }

// resetWindow clears per-window activity.
func (v *VMDK) resetWindow() {
	v.windowRequests = 0
}

// beginMigration attaches the destination extent and bitmap, and binds
// the journal to the engine whose clock stamps its records. The first
// migration gives the journal room for its intent plus one progress
// record per copy chunk; the log restarts in place, so later migrations
// reuse that room.
func (v *VMDK) beginMigration(eng *sim.Engine, dst *Datastore, dstBase int64, mirroring bool) {
	v.jn.eng = eng
	if v.jn.records == nil {
		v.jn.records = make([]JournalRecord, 0, 1+(v.Size+chunkBytes-1)/chunkBytes)
	}
	v.dst = dst
	v.dstBase = dstBase
	v.bitmap = make([]uint64, (v.Blocks()+63)/64)
	v.migrated = 0
	v.mirroring = mirroring
}

// finishMigration commits the move: the destination becomes primary. The
// bitmap memory is released (§5.2: "this space is reclaimed when the
// migration is finished").
func (v *VMDK) finishMigration() {
	v.src = v.dst
	v.srcBase = v.dstBase
	v.dst = nil
	v.bitmap = nil
	v.migrated = 0
	v.mirroring = false
	v.aborting = false
}

// beginAbort starts unwinding the migration: mirroring stops (new writes
// land on the source, clearing their bitmap bits), and the copy engine
// walks migrated blocks back from the destination. The bitmap stays — it
// is exactly the record of which blocks must return.
func (v *VMDK) beginAbort() {
	v.mirroring = false
	v.aborting = true
}

// finishAbort drops destination state once every block is back on the
// source; the VMDK is fully consistent at its original location.
func (v *VMDK) finishAbort() {
	v.dst = nil
	v.bitmap = nil
	v.migrated = 0
	v.mirroring = false
	v.aborting = false
}

// blockMigrated reports whether block b lives at the destination.
func (v *VMDK) blockMigrated(b int64) bool {
	if v.bitmap == nil {
		return false
	}
	return v.bitmap[b/64]&(1<<(uint(b)%64)) != 0
}

// markMigrated sets block b as living at the destination.
func (v *VMDK) markMigrated(b int64) {
	if v.bitmap == nil {
		return
	}
	if !v.blockMigrated(b) {
		v.bitmap[b/64] |= 1 << (uint(b) % 64)
		v.migrated++
	}
}

// markUnmigrated clears block b back to source-resident (abort unwinding
// and abort-time writes use this).
func (v *VMDK) markUnmigrated(b int64) {
	if v.bitmap == nil {
		return
	}
	if v.blockMigrated(b) {
		v.bitmap[b/64] &^= 1 << (uint(b) % 64)
		v.migrated--
	}
}

// Submit implements workload.Target: routes the request to the datastore
// currently holding its blocks. Requests spanning the migration frontier
// split at block granularity; for simplicity a spanning request routes by
// its first block (requests are block-aligned in all provided workloads).
//
//lint:ack-path application-write completions ack to the workload; DESIGN.md §13 record-then-ack requires the epoch fence
func (v *VMDK) Submit(r *trace.IORequest, done device.Completion) {
	v.windowRequests++
	r.VMDK = v.ID

	f := v.newForward(r, done)
	if v.dst == nil {
		v.forward(f, v.src, v.srcBase)
		return
	}
	block := r.Offset / BlockSize
	if v.aborting && r.Op == trace.OpWrite {
		// Abort unwinding: fresh writes land on the source and clear their
		// bitmap bits — the copy-back engine then has less to move, and the
		// source copy stays authoritative.
		last := (r.Offset + r.Size - 1) / BlockSize
		for b := block; b <= last && b < v.Blocks(); b++ {
			v.markUnmigrated(b)
		}
		v.guardAck(f, JournalRevert, block, last)
		v.forward(f, v.src, v.srcBase)
		return
	}
	if r.Op == trace.OpWrite && v.mirroring {
		// I/O mirroring: upcoming writes land at the new location,
		// marking their blocks migrated so no copy is needed (§5.2).
		last := (r.Offset + r.Size - 1) / BlockSize
		for b := block; b <= last && b < v.Blocks(); b++ {
			v.markMigrated(b)
		}
		v.guardAck(f, JournalProgress, block, last)
		v.forward(f, v.dst, v.dstBase)
		return
	}
	if v.blockMigrated(block) {
		v.forward(f, v.dst, v.dstBase)
		return
	}
	v.forward(f, v.src, v.srcBase)
}

// newForward takes a forward record for r from the free list. Its
// completion is bound here, on the record's first use: Submit reaches this
// function, so the ack path it starts runs through complete.
func (v *VMDK) newForward(r *trace.IORequest, done device.Completion) *forward {
	f := v.free.Get()
	if f.v == nil {
		f.v = v
		f.onDone = f.complete
	}
	f.r, f.done, f.guarded = r, done, false
	return f
}

// guardAck puts a write completion under the record-then-ack protocol:
// on success a journal record covering blocks [first,last] persists
// before the ack reaches the application; if a crash fenced the VMDK's
// epoch in between, the write fails with ErrAckLost instead — recovery
// already rebuilt the bitmap without this write's marks, so acking it
// would advertise a block-location change that never became durable.
// Submit guards only writes that change the bitmap of an open migration.
func (v *VMDK) guardAck(f *forward, kind JournalKind, first, last int64) {
	if last >= v.Blocks() {
		last = v.Blocks() - 1
	}
	f.guarded, f.epoch = true, v.jn.Epoch()
	f.kind, f.first, f.count = kind, first, last-first+1
}

// forward rebases the request onto the datastore extent and submits.
func (v *VMDK) forward(f *forward, ds *Datastore, base int64) {
	f.clone = *f.r
	f.clone.Offset = base + f.r.Offset
	ds.Submit(&f.clone, f.onDone)
}

// complete copies the datastore's result back into the caller's request,
// journals a guarded write, and acks.
func (f *forward) complete(c *trace.IORequest) {
	v, r, done := f.v, f.r, f.done
	r.Issue = c.Issue
	r.Complete = c.Complete
	r.Err = c.Err
	if f.guarded && r.Err == nil && !v.jn.AppendIfEpoch(f.epoch, JournalRecord{
		Kind: f.kind, Block: f.first, Count: f.count}) {
		r.Err = ErrAckLost
	}
	f.r, f.done, f.guarded = nil, nil, false
	v.free.Put(f)
	if done != nil {
		done(r)
	}
}

// Barrier forwards to the primary datastore's device when supported.
func (v *VMDK) Barrier() {
	if v.src.barrier != nil {
		v.src.barrier.Barrier()
	}
}

// String describes the VMDK.
func (v *VMDK) String() string {
	loc := v.src.Dev.Name()
	if v.dst != nil {
		loc = fmt.Sprintf("%s→%s (%d/%d blocks)", loc, v.dst.Dev.Name(), v.migrated, v.Blocks())
	}
	return fmt.Sprintf("vmdk%d[%s, %dMB]", v.ID, loc, v.Size>>20)
}

var _ interface {
	Submit(*trace.IORequest, device.Completion)
} = (*VMDK)(nil)
