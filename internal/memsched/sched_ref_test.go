package memsched

import (
	"repro/internal/pagetab"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// refState tracks an entry through the queue.
type refState uint8

const (
	refQueued refState = iota
	refRunning
	refDone
)

// refEntry is one queued write. Entries are pooled per scheduler: an
// entry is recycled only when compact drops it from the queue head, and
// its finish callback is bound once, on the entry's first use.
type refEntry struct {
	seq      uint64
	lpn      int64
	class    trace.Class
	epoch    int
	enqueued sim.Time
	run      func(done func())
	done     func()
	state    refState

	onFinish func() // bound: the operation completed
}

// barrierBound reports whether the entry must respect persistence
// barriers under the policy.
func (e *refEntry) barrierBound(p Policy) bool {
	if e.class == trace.ClassMigrated && p.MigratedIgnoreBarriers {
		return false
	}
	return true
}

// refScheduler is the scan-based scheduler that the per-class FIFO rings
// replaced: one queue slice in enqueue order that pick scans from the
// front for the first ready entry of each kind, and that compact trims
// of finished entries from its head. It is kept, without telemetry, as
// the reference TestSchedulerMatchesScan and FuzzSchedulerVsScan drive
// the Scheduler against.
type refScheduler struct {
	eng    *sim.Engine
	policy Policy
	slots  int // max in-flight operations
	used   int

	queue []*refEntry
	seq   uint64
	free  sim.FreeList[refEntry] // recycled entries

	curEpoch int
	// open counts the outstanding barrier-bound entries of each epoch
	// that has had one, oldest first; a count that reaches zero is
	// dropped once it is the oldest. Epochs are enqueued in increasing
	// order, so appending keeps it sorted, and its storage is reused.
	open     []epochCount
	minEpoch int // oldest epoch with outstanding barrier-bound entries

	// lastPersistentSeq maps lpn → seq of the last persistent write
	// dispatched while a migrated write was queued. Only a migrated write
	// enqueued earlier and still queued can be discarded by a stored seq,
	// so seqs are recorded only while queuedMigrated > 0, and the keys
	// (listed in recorded) are deleted when it returns to zero: the table
	// stays as small as the migrated backlog's window.
	lastPersistentSeq pagetab.Table[uint64]
	recorded          []int64
	queuedMigrated    int

	st      Stats
	waitPer stats.RunningMean
	waitMig stats.RunningMean
}

// newRefScheduler creates a scheduler dispatching at most slots concurrent operations.
func newRefScheduler(eng *sim.Engine, policy Policy, slots int) *refScheduler {
	if slots <= 0 {
		panic("memsched ref: non-positive slot count")
	}
	if policy.NonPersistentBarrier && policy.NPBDelay <= 0 {
		policy.NPBDelay = 100 * sim.Microsecond
	}
	return &refScheduler{eng: eng, policy: policy, slots: slots}
}

// EnqueueWrite queues a write to logical page lpn. run performs the actual
// device operation and must invoke its argument exactly once at completion;
// done (optional) fires after the scheduler records completion.
func (s *refScheduler) EnqueueWrite(lpn int64, class trace.Class, run func(done func()), done func()) {
	s.seq++
	e := s.getEntry()
	e.seq = s.seq
	e.lpn = lpn
	e.class = class
	e.epoch = s.curEpoch
	e.enqueued = s.eng.Now()
	e.run = run
	e.done = done
	e.state = refQueued
	if e.barrierBound(s.policy) {
		if n := len(s.open); n > 0 && s.open[n-1].epoch == e.epoch {
			s.open[n-1].n++
		} else {
			s.open = append(s.open, epochCount{e.epoch, 1})
		}
	}
	if class == trace.ClassMigrated {
		s.queuedMigrated++
	}
	s.queue = append(s.queue, e)
	s.dispatch()
}

// Barrier inserts a persistence barrier: barrier-bound writes enqueued
// after it cannot start until all earlier barrier-bound writes complete.
func (s *refScheduler) Barrier() {
	s.st.Barriers++
	s.curEpoch++
}

// QueueLen returns the number of queued (not yet running) entries.
func (s *refScheduler) QueueLen() int {
	n := 0
	for _, e := range s.queue {
		if e.state == refQueued {
			n++
		}
	}
	return n
}

// ready reports whether e may dispatch now.
func (s *refScheduler) ready(e *refEntry) bool {
	if e.state != refQueued {
		return false
	}
	if !e.barrierBound(s.policy) {
		return true
	}
	// Barrier-bound: every earlier epoch must have fully completed.
	return e.epoch <= s.minEpoch
}

// pick selects the next entry to dispatch, or nil.
func (s *refScheduler) pick() *refEntry {
	var firstReady, firstPersistent, oldestMigrated *refEntry
	now := s.eng.Now()
	for _, e := range s.queue {
		if !s.ready(e) {
			continue
		}
		if firstReady == nil {
			firstReady = e
		}
		if firstPersistent == nil && e.class != trace.ClassMigrated {
			firstPersistent = e
		}
		if oldestMigrated == nil && e.class == trace.ClassMigrated {
			oldestMigrated = e
		}
		if firstPersistent != nil && oldestMigrated != nil {
			break
		}
	}
	if firstReady == nil {
		return nil
	}
	if !s.policy.PrioritizePersistent {
		return firstReady
	}
	// Policy Two: persistent first, unless the non-persistent barrier
	// fires for an over-delayed migrated write.
	if s.policy.NonPersistentBarrier && oldestMigrated != nil &&
		now-oldestMigrated.enqueued >= s.policy.NPBDelay {
		s.st.NPBInsertions++
		return oldestMigrated
	}
	if firstPersistent != nil {
		return firstPersistent
	}
	return oldestMigrated
}

// dispatch fills free slots with ready entries.
func (s *refScheduler) dispatch() {
	s.advanceMinEpoch() // skip past epochs emptied by back-to-back barriers
	for s.used < s.slots {
		e := s.pick()
		if e == nil {
			return
		}
		// Same-location hazard (§5.3.1): a migrated write reordered
		// around a newer persistent write to the same page is stale —
		// discard it instead of clobbering the persistent data.
		if e.class == trace.ClassMigrated {
			pseq, ok := s.lastPersistentSeq.Get(e.lpn)
			s.leaveMigrated()
			if ok && pseq > e.seq {
				e.state = refDone
				s.st.DiscardedMigrated++
				// A discarded entry still satisfies its epoch: without
				// this, a barrier-bound migrated entry would wedge its
				// epoch open forever (deadlock).
				s.retireEpochMember(e)
				done := e.done // compact may recycle e
				s.compact()
				if done != nil {
					done()
				}
				continue
			}
		} else if s.queuedMigrated > 0 {
			if _, ok := s.lastPersistentSeq.Get(e.lpn); !ok {
				s.recorded = append(s.recorded, e.lpn)
			}
			s.lastPersistentSeq.Put(e.lpn, e.seq)
		}
		s.start(e)
	}
}

// leaveMigrated notes that a migrated write left the queue. When it was
// the last one, no stored seq can discard anything any more, so the
// recorded keys are deleted; the table keeps its slots.
func (s *refScheduler) leaveMigrated() {
	s.queuedMigrated--
	if s.queuedMigrated > 0 {
		return
	}
	for _, lpn := range s.recorded {
		s.lastPersistentSeq.Delete(lpn)
	}
	s.recorded = s.recorded[:0]
}

// start launches e on a slot.
func (s *refScheduler) start(e *refEntry) {
	e.state = refRunning
	s.used++
	wait := (s.eng.Now() - e.enqueued).Micros()
	if e.class == trace.ClassMigrated {
		s.waitMig.Add(wait)
	} else {
		s.waitPer.Add(wait)
	}
	e.run(e.onFinish)
}

// finish records completion of e and re-dispatches.
func (s *refScheduler) finish(e *refEntry) {
	if e.state != refRunning {
		panic("memsched ref: completion for non-running refEntry")
	}
	e.state = refDone
	s.used--
	if e.class == trace.ClassMigrated {
		s.st.CompletedMigrated++
	} else {
		s.st.CompletedPersistent++
	}
	s.retireEpochMember(e)
	done := e.done // compact may recycle e
	s.compact()
	if done != nil {
		done()
	}
	s.dispatch()
}

// retireEpochMember releases e's membership in its epoch, advancing the
// oldest-incomplete-epoch pointer when the epoch empties.
func (s *refScheduler) retireEpochMember(e *refEntry) {
	if !e.barrierBound(s.policy) {
		return
	}
	i := 0
	for s.open[i].epoch != e.epoch {
		i++
	}
	s.open[i].n--
	if s.open[i].n > 0 {
		return
	}
	k := 0
	for k < len(s.open) && s.open[k].n == 0 {
		k++
	}
	if k > 0 {
		s.open = s.open[:copy(s.open, s.open[k:])]
	}
	s.advanceMinEpoch()
}

// advanceMinEpoch moves the oldest-incomplete-epoch pointer forward to
// the first epoch from minEpoch on that has outstanding barrier-bound
// entries, or to the current epoch if none has.
func (s *refScheduler) advanceMinEpoch() {
	if s.minEpoch >= s.curEpoch {
		return
	}
	from := s.minEpoch
	s.minEpoch = s.curEpoch
	for _, c := range s.open {
		if c.epoch >= from && c.n > 0 {
			s.minEpoch = c.epoch
			break
		}
	}
}

// compact drops completed entries from the queue head to bound memory
// and recycles them.
func (s *refScheduler) compact() {
	i := 0
	for i < len(s.queue) && s.queue[i].state == refDone {
		s.putEntry(s.queue[i])
		i++
	}
	if i > 0 {
		s.queue = append(s.queue[:0], s.queue[i:]...)
	}
}

// getEntry pops a recycled entry. An entry's finish callback is bound on
// its first use.
func (s *refScheduler) getEntry() *refEntry {
	e := s.free.Get()
	if e.onFinish == nil {
		e.onFinish = func() { s.finish(e) }
	}
	return e
}

// putEntry returns a dropped entry to the free list.
func (s *refScheduler) putEntry(e *refEntry) {
	e.run, e.done = nil, nil
	s.free.Put(e)
}

// Stats returns a snapshot of scheduler statistics.
func (s *refScheduler) Stats() Stats {
	st := s.st
	st.PersistentWaitUS = s.waitPer.Mean()
	st.MigratedWaitUS = s.waitMig.Mean()
	return st
}
