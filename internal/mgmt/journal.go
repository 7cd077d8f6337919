package mgmt

import (
	"errors"

	"repro/internal/sim"
)

// ErrAckLost fails an application write whose completion ack raced a power
// loss: the data may have reached durable media, but the journal record
// that would make the block-location change visible was never persisted,
// so recovery rebuilt the bitmap without it. The submitter must treat the
// write as never having happened — the same contract as a real storage
// stack losing an un-acked write on power failure.
var ErrAckLost = errors.New("mgmt: write ack lost to crash before journal record persisted")

// JournalKind identifies one migration-journal record type.
type JournalKind uint8

const (
	// JournalIntent opens a migration: destination, extent base, and
	// whether writes redirect. Written synchronously at start, before any
	// block moves.
	JournalIntent JournalKind = iota
	// JournalProgress marks a run of blocks as living at the destination.
	JournalProgress
	// JournalRevert clears a run of blocks back to source-resident
	// (abort-time writes and copy-back traffic).
	JournalRevert
	// JournalAbort flags the migration as unwinding; recovery must finish
	// the rollback, never resume forward.
	JournalAbort
	// JournalCommit closes a migration that completed forward: the
	// destination is primary and no recovery action remains.
	JournalCommit
	// JournalDone closes a migration whose unwind completed: the source is
	// primary and no recovery action remains.
	JournalDone
)

// JournalRecord is one journal entry. Records are kept in append order,
// which is sim-time order.
type JournalRecord struct {
	At        sim.Time // when the append was issued
	DurableAt sim.Time // when the record is persistent (== At for sync appends)
	Kind      JournalKind

	// Intent payload.
	Src, Dst string
	DstBase  int64
	Redirect bool

	// Progress/Revert payload: a contiguous block run.
	Block, Count int64
}

// journalAppendDelay is how long a lazy (background-copy progress)
// append sits in the write buffer before persisting; a crash inside that
// window loses the record. Synchronous appends (intent, abort, commit,
// redirected-write marks) are durable immediately.
const journalAppendDelay = 2 * sim.Microsecond

// Journal is one VMDK's deterministic migration journal (DESIGN.md §13).
// It models an append-only log on the NVDIMM tier: synchronous appends are
// durable at the instant they are issued (record-then-ack), while lazy
// appends — background-copy progress — sit in a write buffer for
// journalAppendDelay before persisting and are discarded if a crash bumps
// the epoch first. The epoch fences the ack path: a completion that
// captured the pre-crash epoch cannot append after recovery rebuilt the
// VMDK.
//
// The log restarts at every intent, commit and done record: each is
// synchronous, so durable when appended, and each resets replay's state
// completely, so nothing logged before it is ever read again. The log
// therefore holds only the open migration's records (or the closing
// record and any late acks after it), however long the run.
type Journal struct {
	eng     *sim.Engine
	records []JournalRecord
	epoch   uint64
}

// Epoch returns the VMDK's current crash epoch. Callers on the ack path
// capture it at submit and pass it back to AppendIfEpoch at completion.
func (j *Journal) Epoch() uint64 { return j.epoch }

// append stamps and stores a record, durable at durableAt. An intent,
// commit or done record restarts the log.
func (j *Journal) append(rec JournalRecord, durableAt sim.Time) {
	rec.At = j.eng.Now()
	rec.DurableAt = durableAt
	switch rec.Kind {
	case JournalIntent, JournalCommit, JournalDone:
		j.records = j.records[:0]
	}
	j.records = append(j.records, rec)
}

// appendSync persists a record immediately (record-then-ack path and
// migration lifecycle control records).
func (j *Journal) appendSync(rec JournalRecord) {
	j.append(rec, j.eng.Now())
}

// appendLazy buffers a record that persists after journalAppendDelay.
// Background-copy progress uses this: losing it on a crash is safe (the
// source stays authoritative for the affected blocks) and the buffered
// write keeps the copy path off the journal's critical path.
func (j *Journal) appendLazy(rec JournalRecord) {
	j.append(rec, j.eng.Now()+journalAppendDelay)
}

// AppendIfEpoch persists rec synchronously if the epoch still matches ep,
// reporting whether it did. A mismatch means a crash tore the VMDK down
// between submit and completion: the caller must fail its request
// (ErrAckLost) instead of acking.
func (j *Journal) AppendIfEpoch(ep uint64, rec JournalRecord) bool {
	if j.epoch != ep {
		return false
	}
	j.appendSync(rec)
	return true
}

// bumpEpoch advances the crash epoch, discarding buffered records that
// had not yet persisted — the power loss took the write buffer with it.
// Durable records survive.
func (j *Journal) bumpEpoch() {
	j.epoch++
	now := j.eng.Now()
	kept := j.records[:0]
	for _, r := range j.records {
		if r.DurableAt <= now {
			kept = append(kept, r)
		}
	}
	j.records = kept
}

// replayState is a VMDK's migration state as reconstructed from durable
// journal records.
type replayState struct {
	live     bool // a migration is open (intent without commit/done)
	aborting bool
	src, dst string
	dstBase  int64
	redirect bool
	bitmap   []uint64
	migrated int64
}

// replay rebuilds the VMDK's migration state from its durable records:
// intent resets, progress sets, revert clears, abort flags, commit/done
// close. blocks is the VMDK's bitmap length in blocks.
func (j *Journal) replay(blocks int64) replayState {
	var st replayState
	now := j.eng.Now()
	for _, r := range j.records {
		if r.DurableAt > now {
			continue
		}
		switch r.Kind {
		case JournalIntent:
			st = replayState{
				live: true, src: r.Src, dst: r.Dst,
				dstBase: r.DstBase, redirect: r.Redirect,
				bitmap: make([]uint64, (blocks+63)/64),
			}
		case JournalProgress:
			for b := r.Block; b < r.Block+r.Count && b < blocks; b++ {
				if st.bitmap != nil && st.bitmap[b/64]&(1<<(uint(b)%64)) == 0 {
					st.bitmap[b/64] |= 1 << (uint(b) % 64)
					st.migrated++
				}
			}
		case JournalRevert:
			for b := r.Block; b < r.Block+r.Count && b < blocks; b++ {
				if st.bitmap != nil && st.bitmap[b/64]&(1<<(uint(b)%64)) != 0 {
					st.bitmap[b/64] &^= 1 << (uint(b) % 64)
					st.migrated--
				}
			}
		case JournalAbort:
			st.aborting = true
		case JournalCommit, JournalDone:
			st = replayState{}
		}
	}
	return st
}
