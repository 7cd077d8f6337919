package memsched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
)

// fixedOp returns a run function that occupies a slot for d simulated time.
func fixedOp(eng *sim.Engine, d sim.Time, started *[]string, label string) func(done func()) {
	return func(done func()) {
		if started != nil {
			*started = append(*started, label)
		}
		eng.Schedule(d, done)
	}
}

func TestFCFSRespectsBarriers(t *testing.T) {
	// Fig. 9(a): RA | barrier | RB RC RD — RB/RC/RD wait for RA.
	eng := sim.NewEngine()
	s := New(eng, Baseline(), 4)
	var order []string
	s.EnqueueWrite(1, trace.ClassPersistent, fixedOp(eng, 100, &order, "RA"), nil)
	s.Barrier()
	s.EnqueueWrite(2, trace.ClassPersistent, fixedOp(eng, 100, &order, "RB"), nil)
	s.EnqueueWrite(3, trace.ClassMigrated, fixedOp(eng, 100, &order, "RC"), nil)
	eng.RunUntil(50)
	if len(order) != 1 || order[0] != "RA" {
		t.Fatalf("before RA completes, started = %v, want [RA]", order)
	}
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("all should run eventually: %v", order)
	}
}

func TestPolicyOneMigratedIgnoresBarriers(t *testing.T) {
	// Fig. 9(b): migrated requests dispatch despite the barrier.
	eng := sim.NewEngine()
	s := New(eng, PolicyOne(), 4)
	var order []string
	s.EnqueueWrite(1, trace.ClassPersistent, fixedOp(eng, 100, &order, "RA"), nil)
	s.Barrier()
	s.EnqueueWrite(2, trace.ClassPersistent, fixedOp(eng, 100, &order, "RB"), nil)
	s.EnqueueWrite(3, trace.ClassMigrated, fixedOp(eng, 100, &order, "RH"), nil)
	eng.RunUntil(50)
	if len(order) != 2 || order[1] != "RH" {
		t.Fatalf("migrated should start concurrently with RA: %v", order)
	}
	eng.Run()
	st := s.Stats()
	if st.CompletedMigrated != 1 || st.CompletedPersistent != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPolicyTwoPersistentFirst(t *testing.T) {
	// With one slot, a ready persistent write dispatches before a ready
	// migrated write that arrived earlier.
	eng := sim.NewEngine()
	s := New(eng, Policy{MigratedIgnoreBarriers: true, PrioritizePersistent: true}, 1)
	var order []string
	// Occupy the slot.
	s.EnqueueWrite(1, trace.ClassPersistent, fixedOp(eng, 100, &order, "hold"), nil)
	s.EnqueueWrite(2, trace.ClassMigrated, fixedOp(eng, 100, &order, "mig"), nil)
	s.EnqueueWrite(3, trace.ClassPersistent, fixedOp(eng, 100, &order, "per"), nil)
	eng.Run()
	if len(order) != 3 || order[1] != "per" || order[2] != "mig" {
		t.Fatalf("order = %v, want [hold per mig]", order)
	}
}

func TestBaselineFIFOWithinEpoch(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Baseline(), 1)
	var order []string
	s.EnqueueWrite(1, trace.ClassPersistent, fixedOp(eng, 10, &order, "a"), nil)
	s.EnqueueWrite(2, trace.ClassMigrated, fixedOp(eng, 10, &order, "b"), nil)
	s.EnqueueWrite(3, trace.ClassPersistent, fixedOp(eng, 10, &order, "c"), nil)
	eng.Run()
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("baseline order = %v", order)
	}
}

func TestNonPersistentBarrierPreventsStarvation(t *testing.T) {
	// Under Policy Two, a stream of persistent writes would delay a
	// migrated write indefinitely; the NPB promotes it after NPBDelay.
	eng := sim.NewEngine()
	pol := Combined(500)
	s := New(eng, pol, 1)
	var order []string
	s.EnqueueWrite(1, trace.ClassPersistent, fixedOp(eng, 200, &order, "p0"), nil)
	s.EnqueueWrite(100, trace.ClassMigrated, fixedOp(eng, 200, &order, "mig"), nil)
	// Keep feeding persistent writes as each one finishes.
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(sim.Time(i*200+50), func() {
			s.EnqueueWrite(int64(i+2), trace.ClassPersistent,
				fixedOp(eng, 200, &order, "p"), nil)
		})
	}
	eng.Run()
	// mig must not be last: the NPB fires once it has waited 500.
	pos := -1
	for i, l := range order {
		if l == "mig" {
			pos = i
		}
	}
	if pos < 0 || pos == len(order)-1 {
		t.Fatalf("migrated write starved: order = %v", order)
	}
	if s.Stats().NPBInsertions == 0 {
		t.Fatal("no NPB insertions recorded")
	}
}

func TestWithoutNPBMigratedStarves(t *testing.T) {
	// Same scenario, NPB disabled: the migrated write lands last.
	eng := sim.NewEngine()
	s := New(eng, Policy{MigratedIgnoreBarriers: true, PrioritizePersistent: true}, 1)
	var order []string
	s.EnqueueWrite(1, trace.ClassPersistent, fixedOp(eng, 200, &order, "p0"), nil)
	s.EnqueueWrite(100, trace.ClassMigrated, fixedOp(eng, 200, &order, "mig"), nil)
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(sim.Time(i*200+50), func() {
			s.EnqueueWrite(int64(i+2), trace.ClassPersistent,
				fixedOp(eng, 200, &order, "p"), nil)
		})
	}
	eng.Run()
	if order[len(order)-1] != "mig" {
		t.Fatalf("expected migrated last without NPB: %v", order)
	}
}

func TestSameLocationMigratedDiscarded(t *testing.T) {
	// A migrated write to an LPN that a *newer* persistent write has
	// already dispatched to must be discarded, not executed.
	eng := sim.NewEngine()
	s := New(eng, Policy{MigratedIgnoreBarriers: true, PrioritizePersistent: true}, 1)
	var order []string
	s.EnqueueWrite(1, trace.ClassPersistent, fixedOp(eng, 100, &order, "hold"), nil)
	migDone := false
	s.EnqueueWrite(7, trace.ClassMigrated, fixedOp(eng, 100, &order, "mig7"), func() { migDone = true })
	s.EnqueueWrite(7, trace.ClassPersistent, fixedOp(eng, 100, &order, "per7"), nil)
	eng.Run()
	for _, l := range order {
		if l == "mig7" {
			t.Fatalf("stale migrated write executed: %v", order)
		}
	}
	if !migDone {
		t.Fatal("discarded migrated write must still signal completion")
	}
	if s.Stats().DiscardedMigrated != 1 {
		t.Fatalf("discards = %d", s.Stats().DiscardedMigrated)
	}
}

func TestBackToBackBarriers(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Baseline(), 2)
	var order []string
	s.Barrier()
	s.Barrier()
	s.EnqueueWrite(1, trace.ClassPersistent, fixedOp(eng, 10, &order, "a"), nil)
	eng.Run()
	if len(order) != 1 {
		t.Fatalf("entry after empty epochs never ran: %v", order)
	}
	if s.Stats().Barriers != 2 {
		t.Fatalf("barriers = %d", s.Stats().Barriers)
	}
}

func TestSlotLimit(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Baseline(), 2)
	var started []string
	for i := 0; i < 5; i++ {
		s.EnqueueWrite(int64(i), trace.ClassPersistent, fixedOp(eng, 100, &started, "x"), nil)
	}
	if s.InFlight() != 2 {
		t.Fatalf("in flight = %d, want 2", s.InFlight())
	}
	if s.QueueLen() != 3 {
		t.Fatalf("queued = %d, want 3", s.QueueLen())
	}
	eng.Run()
	if len(started) != 5 {
		t.Fatalf("started = %d, want 5", len(started))
	}
	if s.InFlight() != 0 || s.QueueLen() != 0 {
		t.Fatal("scheduler not drained")
	}
}

func TestNewPanicsOnZeroSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(sim.NewEngine(), Baseline(), 0)
}

func TestWaitStatsByClass(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, PolicyTwo(), 1)
	s.EnqueueWrite(1, trace.ClassPersistent, fixedOp(eng, 1000, nil, ""), nil)
	s.EnqueueWrite(2, trace.ClassMigrated, fixedOp(eng, 1000, nil, ""), nil)
	eng.Run()
	st := s.Stats()
	if st.MigratedWaitUS <= st.PersistentWaitUS {
		t.Fatalf("migrated wait (%v) should exceed persistent (%v)",
			st.MigratedWaitUS, st.PersistentWaitUS)
	}
}

func TestCombinedPolicyDefaults(t *testing.T) {
	p := Combined(0)
	s := New(sim.NewEngine(), p, 1)
	if s.policy.NPBDelay <= 0 {
		t.Fatal("zero NPB delay not defaulted")
	}
	if !s.policy.MigratedIgnoreBarriers || !s.policy.PrioritizePersistent || !s.policy.NonPersistentBarrier {
		t.Fatal("combined policy incomplete")
	}
}

func TestPaperFigure9Scenario(t *testing.T) {
	// Eight writes RA..RH, barriers after RA, after RD, after RE.
	// Persistent: RA RB RE RF; migrated: RC RD RG RH (paper example).
	build := func(pol Policy) (finish sim.Time) {
		eng := sim.NewEngine()
		s := New(eng, pol, 2)
		classOf := map[string]trace.Class{
			"RA": trace.ClassPersistent, "RB": trace.ClassPersistent,
			"RC": trace.ClassMigrated, "RD": trace.ClassMigrated,
			"RE": trace.ClassPersistent, "RF": trace.ClassPersistent,
			"RG": trace.ClassMigrated, "RH": trace.ClassMigrated,
		}
		seq := []string{"RA", "|", "RB", "RC", "RD", "|", "RE", "|", "RF", "RG", "RH"}
		lpn := int64(0)
		for _, x := range seq {
			if x == "|" {
				s.Barrier()
				continue
			}
			lpn++
			s.EnqueueWrite(lpn, classOf[x], fixedOp(eng, 100, nil, x), nil)
		}
		eng.Run()
		return eng.Now()
	}
	base := build(Baseline())
	p1 := build(PolicyOne())
	both := build(Combined(50))
	if p1 >= base {
		t.Fatalf("Policy One (%v) should beat baseline (%v)", p1, base)
	}
	// Combined adds persistent-priority reordering, which can cost a
	// little makespan on a tiny example while helping persistent-write
	// latency; it must still beat the barrier-bound baseline.
	if both >= base {
		t.Fatalf("combined (%v) should beat baseline (%v)", both, base)
	}
}

// Property: under every policy, any sequence of writes and barriers
// completes exactly once — no entry is lost, duplicated, or deadlocked —
// and barrier-bound completions never precede an earlier epoch's.
func TestSchedulerCompletenessProperty(t *testing.T) {
	policies := []Policy{Baseline(), PolicyOne(), PolicyTwo(), Combined(500)}
	f := func(ops []uint8, lpns []int8) bool {
		n := len(ops)
		if len(lpns) < n {
			n = len(lpns)
		}
		for _, pol := range policies {
			eng := sim.NewEngine()
			s := New(eng, pol, 3)
			completions := 0
			enqueued := 0
			for i := 0; i < n; i++ {
				switch ops[i] % 4 {
				case 0:
					s.Barrier()
				case 1, 2:
					enqueued++
					s.EnqueueWrite(int64(lpns[i]), trace.ClassPersistent,
						fixedOp(eng, sim.Time(50+int(ops[i])%100), nil, ""),
						func() { completions++ })
				case 3:
					enqueued++
					s.EnqueueWrite(int64(lpns[i]), trace.ClassMigrated,
						fixedOp(eng, sim.Time(50+int(ops[i])%100), nil, ""),
						func() { completions++ })
				}
			}
			eng.Run()
			if completions != enqueued {
				return false
			}
			if s.InFlight() != 0 || s.QueueLen() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentSeqsUnrecordedWithoutMigrated(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Combined(500), 2)
	for i := 0; i < 64; i++ {
		s.EnqueueWrite(int64(i%8), trace.ClassPersistent, fixedOp(eng, 50, nil, ""), nil)
		if i%3 == 0 {
			s.Barrier()
		}
	}
	eng.Run()
	if len(s.recorded) != 0 {
		t.Fatalf("recorded %d keys with no migrated write queued", len(s.recorded))
	}
	for lpn := int64(0); lpn < 8; lpn++ {
		if _, ok := s.lastPersistentSeq.Get(lpn); ok {
			t.Fatalf("lpn %d recorded with no migrated write queued", lpn)
		}
	}
}

// TestBoundedSeqTableDiscardsAsUnbounded checks every discard decision on
// an interleaved stream against the rule the table implements: a
// migrated write is stale iff a persistent write to its page, enqueued
// after it, dispatched first. The reference keeps every dispatched
// persistent seq forever; equal decisions at every dispatch make the
// whole schedule, and DiscardedMigrated, equal.
func TestBoundedSeqTableDiscardsAsUnbounded(t *testing.T) {
	var discards uint64
	for _, pol := range []Policy{Baseline(), PolicyOne(), PolicyTwo(), Combined(300)} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine()
			s := New(eng, pol, 2)
			ref := map[int64]uint64{} // lpn → newest dispatched persistent seq
			var seq uint64            // the scheduler's: one per enqueue
			for i := 0; i < 200; i++ {
				var my uint64
				lpn := int64(rng.Intn(6))
				class := trace.ClassPersistent
				if rng.Intn(2) == 0 {
					class = trace.ClassMigrated
				}
				at := sim.Time(rng.Intn(20000))
				barrier := rng.Intn(4) == 0
				started := false
				run := func(done func()) {
					started = true
					if class == trace.ClassMigrated {
						if ref[lpn] > my {
							t.Fatalf("seed %d: stale migrated write %d on lpn %d started", seed, my, lpn)
						}
					} else {
						ref[lpn] = my
					}
					eng.Schedule(sim.Time(50+rng.Intn(200)), done)
				}
				done := func() {
					if !started && ref[lpn] < my {
						t.Fatalf("seed %d: migrated write %d on lpn %d discarded but not stale", seed, my, lpn)
					}
				}
				eng.At(at, func() {
					seq++
					my = seq
					s.EnqueueWrite(lpn, class, run, done)
					if barrier {
						s.Barrier()
					}
				})
			}
			eng.Run()
			discards += s.Stats().DiscardedMigrated
			if s.migrated.Len() != 0 || len(s.recorded) != 0 {
				t.Fatalf("seed %d: %d migrated queued, %d keys recorded after drain", seed, s.migrated.Len(), len(s.recorded))
			}
		}
	}
	if discards == 0 {
		t.Fatal("no stream discarded a migrated write; the check saw nothing")
	}
}
