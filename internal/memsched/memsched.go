// Package memsched implements the NVDIMM controller's transaction-queue
// scheduling from paper §5.3.1 (Figs. 9 and 10): barrier-respecting FCFS
// as the baseline, Policy One (migrated writes ignore persistence
// barriers), Policy Two (persistent writes prioritized over migrated
// writes, with same-location migrated writes discarded), and the
// non-persistent barrier that bounds migrated-write delay under Policy
// Two.
//
// The scheduler admits a bounded number of in-flight operations (one per
// flash channel by default); ordering decisions therefore translate
// directly into which request reserves flash time first.
package memsched

import (
	"repro/internal/pagetab"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Policy selects the scheduling behaviour.
type Policy struct {
	// MigratedIgnoreBarriers is Policy One: migrated writes dispatch
	// regardless of persistence barriers.
	MigratedIgnoreBarriers bool
	// PrioritizePersistent is Policy Two: ready persistent writes are
	// chosen before ready migrated writes.
	PrioritizePersistent bool
	// NonPersistentBarrier bounds migrated-write delay under Policy Two:
	// a migrated write that has waited at least NPBDelay is served ahead
	// of persistent writes (Fig. 10).
	NonPersistentBarrier bool
	// NPBDelay is the "predefined earlier time period" after which the
	// controller inserts a non-persistent barrier.
	NPBDelay sim.Time
}

// Baseline returns barrier-respecting FCFS (Fig. 9a).
func Baseline() Policy { return Policy{} }

// PolicyOne returns the barrier-free-migrated policy (Fig. 9b).
func PolicyOne() Policy { return Policy{MigratedIgnoreBarriers: true} }

// PolicyTwo returns the persistent-priority policy (Fig. 9c).
func PolicyTwo() Policy { return Policy{PrioritizePersistent: true} }

// Combined returns Policy One + Policy Two with the non-persistent barrier
// enabled at the given delay.
func Combined(npbDelay sim.Time) Policy {
	return Policy{
		MigratedIgnoreBarriers: true,
		PrioritizePersistent:   true,
		NonPersistentBarrier:   true,
		NPBDelay:               npbDelay,
	}
}

// entry is one queued write. Entries are pooled per scheduler: an entry
// is recycled when its operation finishes or it is discarded, and its
// finish callback is bound once, on the entry's first use.
type entry struct {
	seq      uint64
	lpn      int64
	class    trace.Class
	epoch    int
	enqueued sim.Time
	run      func(done func())
	done     func()
	running  bool

	onFinish func() // bound: the operation completed
}

// barrierBound reports whether the entry must respect persistence
// barriers under the policy.
func (e *entry) barrierBound(p Policy) bool {
	if e.class == trace.ClassMigrated && p.MigratedIgnoreBarriers {
		return false
	}
	return true
}

// Stats reports scheduler activity.
type Stats struct {
	CompletedPersistent uint64
	CompletedMigrated   uint64
	DiscardedMigrated   uint64
	NPBInsertions       uint64
	Barriers            uint64
	// Mean queueing delay (µs) by class.
	PersistentWaitUS float64
	MigratedWaitUS   float64
}

// Scheduler is the transaction-queue scheduler.
//
// Queued entries wait in two FIFO rings in enqueue order (= seq order):
// migrated writes, and everything else (normal and persistent writes,
// which are always barrier-bound). Within a ring every entry obeys
// barriers alike, and epochs never decrease in enqueue order, so the
// entries that may dispatch form a prefix of the ring: all of it when
// the class ignores barriers, else those with epoch ≤ minEpoch. Every
// choice the policies make — the first ready entry, the first ready
// persistent one, the oldest ready migrated one — is therefore one of
// the two heads.
type Scheduler struct {
	eng    *sim.Engine
	policy Policy
	slots  int // max in-flight operations
	used   int

	migrated sim.Ring[*entry] // queued migrated writes
	other    sim.Ring[*entry] // queued normal and persistent writes
	seq      uint64
	free     sim.FreeList[entry] // recycled entries

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
	// so seqs are recorded only while the migrated ring is non-empty, and
	// the keys (listed in recorded) are deleted when it empties: the
	// table stays as small as the migrated backlog's window.
	lastPersistentSeq pagetab.Table[uint64]
	recorded          []int64

	st      Stats
	waitPer stats.RunningMean
	waitMig stats.RunningMean

	tr    *telemetry.Tracer
	track string
}

// New creates a scheduler dispatching at most slots concurrent operations.
func New(eng *sim.Engine, policy Policy, slots int) *Scheduler {
	if slots <= 0 {
		panic("memsched: non-positive slot count")
	}
	if policy.NonPersistentBarrier && policy.NPBDelay <= 0 {
		policy.NPBDelay = 100 * sim.Microsecond
	}
	return &Scheduler{eng: eng, policy: policy, slots: slots}
}

// EnqueueWrite queues a write to logical page lpn. run performs the actual
// device operation and must invoke its argument exactly once at completion;
// done (optional) fires after the scheduler records completion.
func (s *Scheduler) EnqueueWrite(lpn int64, class trace.Class, run func(done func()), done func()) {
	s.seq++
	e := s.getEntry()
	e.seq = s.seq
	e.lpn = lpn
	e.class = class
	e.epoch = s.curEpoch
	e.enqueued = s.eng.Now()
	e.run = run
	e.done = done
	if e.barrierBound(s.policy) {
		if n := len(s.open); n > 0 && s.open[n-1].epoch == e.epoch {
			s.open[n-1].n++
		} else {
			s.open = append(s.open, epochCount{e.epoch, 1})
		}
	}
	s.ring(class).Push(e)
	s.dispatch()
}

// ring returns the ring that queues writes of class.
func (s *Scheduler) ring(class trace.Class) *sim.Ring[*entry] {
	if class == trace.ClassMigrated {
		return &s.migrated
	}
	return &s.other
}

// Barrier inserts a persistence barrier: barrier-bound writes enqueued
// after it cannot start until all earlier barrier-bound writes complete.
func (s *Scheduler) Barrier() {
	s.st.Barriers++
	s.curEpoch++
}

// QueueLen returns the number of queued (not yet running) entries.
func (s *Scheduler) QueueLen() int { return s.migrated.Len() + s.other.Len() }

// InFlight returns the number of running operations.
//
//lint:ignore unreachable nvdimm TestRecordReuseUnderReentrancy
func (s *Scheduler) InFlight() int { return s.used }

// readyHead returns q's head if it may dispatch now, or nil.
func (s *Scheduler) readyHead(q *sim.Ring[*entry]) *entry {
	if q.Len() == 0 {
		return nil
	}
	e := q.Peek()
	// Barrier-bound: every earlier epoch must have fully completed.
	if e.barrierBound(s.policy) && e.epoch > s.minEpoch {
		return nil
	}
	return e
}

// pick selects the next entry to dispatch, or nil.
func (s *Scheduler) pick() *entry {
	oldestMigrated := s.readyHead(&s.migrated)
	firstPersistent := s.readyHead(&s.other)
	firstReady := firstPersistent
	if oldestMigrated != nil && (firstPersistent == nil || oldestMigrated.seq < firstPersistent.seq) {
		firstReady = oldestMigrated
	}
	if firstReady == nil {
		return nil
	}
	now := s.eng.Now()
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
func (s *Scheduler) dispatch() {
	s.advanceMinEpoch() // skip past epochs emptied by back-to-back barriers
	for s.used < s.slots {
		e := s.pick()
		if e == nil {
			return
		}
		s.ring(e.class).Pop() // pick returns a ring head
		// Same-location hazard (§5.3.1): a migrated write reordered
		// around a newer persistent write to the same page is stale —
		// discard it instead of clobbering the persistent data.
		if e.class == trace.ClassMigrated {
			pseq, ok := s.lastPersistentSeq.Get(e.lpn)
			s.leaveMigrated()
			if ok && pseq > e.seq {
				s.st.DiscardedMigrated++
				// A discarded entry still satisfies its epoch: without
				// this, a barrier-bound migrated entry would wedge its
				// epoch open forever (deadlock).
				s.retireEpochMember(e)
				done := e.done
				s.putEntry(e)
				if done != nil {
					done()
				}
				continue
			}
		} else if s.migrated.Len() > 0 {
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
func (s *Scheduler) leaveMigrated() {
	if s.migrated.Len() > 0 {
		return
	}
	for _, lpn := range s.recorded {
		s.lastPersistentSeq.Delete(lpn)
	}
	s.recorded = s.recorded[:0]
}

// start launches e on a slot.
func (s *Scheduler) start(e *entry) {
	e.running = true
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
func (s *Scheduler) finish(e *entry) {
	if !e.running {
		panic("memsched: completion for non-running entry")
	}
	e.running = false
	s.used--
	if e.class == trace.ClassMigrated {
		s.st.CompletedMigrated++
	} else {
		s.st.CompletedPersistent++
	}
	if s.tr != nil {
		s.tr.Complete(s.track, e.class.String(), "sched", e.enqueued, s.eng.Now(),
			telemetry.I("lpn", e.lpn))
	}
	s.retireEpochMember(e)
	done := e.done
	s.putEntry(e)
	if done != nil {
		done()
	}
	s.dispatch()
}

// epochCount is one epoch's outstanding barrier-bound entries.
type epochCount struct {
	epoch, n int
}

// retireEpochMember releases e's membership in its epoch, advancing the
// oldest-incomplete-epoch pointer when the epoch empties.
func (s *Scheduler) retireEpochMember(e *entry) {
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
func (s *Scheduler) advanceMinEpoch() {
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

// getEntry pops a recycled entry. An entry's finish callback is bound on
// its first use.
func (s *Scheduler) getEntry() *entry {
	e := s.free.Get()
	if e.onFinish == nil {
		e.onFinish = func() { s.finish(e) }
	}
	return e
}

// putEntry returns a finished or discarded entry to the free list.
func (s *Scheduler) putEntry(e *entry) {
	e.run, e.done = nil, nil
	s.free.Put(e)
}

// Stats returns a snapshot of scheduler statistics.
func (s *Scheduler) Stats() Stats {
	st := s.st
	st.PersistentWaitUS = s.waitPer.Mean()
	st.MigratedWaitUS = s.waitMig.Mean()
	return st
}

// SetTracer enables per-operation queue+service spans on track (nil
// disables).
func (s *Scheduler) SetTracer(tr *telemetry.Tracer, track string) {
	s.tr = tr
	s.track = track
}

// RegisterTelemetry exposes transaction-queue activity under prefix:
// queue depth, in-flight operations, completion/discard counters, barrier
// bookkeeping, and mean queueing delay per class.
func (s *Scheduler) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"queue_len", func() float64 { return float64(s.QueueLen()) })
	reg.Gauge(prefix+"inflight", func() float64 { return float64(s.used) })
	reg.Gauge(prefix+"completed_persistent", func() float64 { return float64(s.st.CompletedPersistent) })
	reg.Gauge(prefix+"completed_migrated", func() float64 { return float64(s.st.CompletedMigrated) })
	reg.Gauge(prefix+"discarded_migrated", func() float64 { return float64(s.st.DiscardedMigrated) })
	reg.Gauge(prefix+"npb_insertions", func() float64 { return float64(s.st.NPBInsertions) })
	reg.Gauge(prefix+"barriers", func() float64 { return float64(s.st.Barriers) })
	reg.Gauge(prefix+"wait_persistent_us", func() float64 { return s.waitPer.Mean() })
	reg.Gauge(prefix+"wait_migrated_us", func() float64 { return s.waitMig.Mean() })
}
