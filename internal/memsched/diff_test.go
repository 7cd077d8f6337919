package memsched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// diffSide is one scheduler under the differential driver, with a log of
// what it has done so far.
type diffSide struct {
	s interface {
		EnqueueWrite(lpn int64, class trace.Class, run func(done func()), done func())
		Barrier()
		QueueLen() int
		Stats() Stats
	}
	next    int      // id of the next write enqueued
	log     []int    // 2·id when a write starts, 2·id+1 when its done fires
	running []diffOp // started writes not yet completed, in start order
}

// diffOp is a started write and the completion its run was handed.
type diffOp struct {
	id   int
	done func()
}

// enqueue queues a write; with chain, its done enqueues a migrated write
// to the next page, the re-entrant path the NVDIMM's write-backs take.
func (d *diffSide) enqueue(lpn int64, class trace.Class, chain bool) {
	id := d.next
	d.next++
	run := func(done func()) {
		d.log = append(d.log, 2*id)
		d.running = append(d.running, diffOp{id, done})
	}
	d.s.EnqueueWrite(lpn, class, run, func() {
		d.log = append(d.log, 2*id+1)
		if chain {
			d.enqueue(lpn+1, trace.ClassMigrated, false)
		}
	})
}

// complete finishes the i-th running write.
func (d *diffSide) complete(i int) {
	op := d.running[i]
	d.running = slices.Delete(d.running, i, i+1)
	op.done()
}

// diffPolicies are the policies the differential tests cover.
var diffPolicies = []struct {
	name   string
	policy Policy
}{
	{"baseline", Baseline()},
	{"policy-one", PolicyOne()},
	{"policy-two", PolicyTwo()},
	{"combined", Combined(100 * sim.Microsecond)},
}

// runSchedulerDiff drives the Scheduler and the scan-based reference with
// the operation stream ops, one byte per operation, and fails unless
// both start the same writes in the same order, fire the same dones
// (a done without a start is a discard), and agree on QueueLen and
// Stats after every operation. Completions come in any order. After the
// stream every running write completes, oldest first, until both are
// idle and empty. It returns the final Stats.
func runSchedulerDiff(t *testing.T, policy Policy, slots int, ops []byte) Stats {
	eng := sim.NewEngine()
	got := &diffSide{s: New(eng, policy, slots)}
	want := &diffSide{s: newRefScheduler(eng, policy, slots)}
	compare := func(step string) {
		if !slices.Equal(got.log, want.log) {
			t.Fatalf("%s: log %v, reference %v", step, got.log, want.log)
		}
		if g, w := got.s.QueueLen(), want.s.QueueLen(); g != w {
			t.Fatalf("%s: QueueLen %d, reference %d", step, g, w)
		}
		if g, w := got.s.Stats(), want.s.Stats(); g != w {
			t.Fatalf("%s: Stats %+v, reference %+v", step, g, w)
		}
		if len(got.running) != len(want.running) {
			t.Fatalf("%s: %d running, reference %d", step, len(got.running), len(want.running))
		}
	}
	for i, b := range ops {
		arg := int(b >> 3)
		both := func(f func(d *diffSide)) { f(got); f(want) }
		switch b & 7 {
		case 0, 1:
			class := trace.ClassPersistent
			if arg&1 == 1 {
				class = trace.ClassNormal
			}
			both(func(d *diffSide) { d.enqueue(int64(arg>>1%8), class, false) })
		case 2, 3:
			both(func(d *diffSide) { d.enqueue(int64(arg%8), trace.ClassMigrated, arg&8 != 0) })
		case 4:
			both(func(d *diffSide) { d.s.Barrier() })
		case 5, 6:
			if n := len(got.running); n > 0 {
				both(func(d *diffSide) { d.complete(arg % n) })
			}
		case 7:
			eng.RunFor(sim.Time(arg) * 20 * sim.Microsecond)
		}
		compare(fmt.Sprintf("op %d (%#x)", i, b))
	}
	for len(got.running) > 0 {
		got.complete(0)
		want.complete(0)
		compare("drain")
	}
	if got.s.QueueLen() != 0 {
		t.Fatalf("drained with %d writes still queued", got.s.QueueLen())
	}
	return got.s.Stats()
}

// TestSchedulerMatchesScan runs seeded random streams through
// runSchedulerDiff under every policy and slot counts 1 to 3, and checks
// that the streams reach the discard rule under Policy Two and the
// non-persistent barrier under Combined. (Without Policy Two no write
// overtakes an older one to the same page, so nothing is discarded.)
func TestSchedulerMatchesScan(t *testing.T) {
	for _, pc := range diffPolicies {
		var total Stats
		for slots := 1; slots <= 3; slots++ {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed*131 + int64(slots)))
				ops := make([]byte, 400)
				rng.Read(ops)
				t.Run(fmt.Sprintf("%s/slots=%d/seed=%d", pc.name, slots, seed), func(t *testing.T) {
					st := runSchedulerDiff(t, pc.policy, slots, ops)
					total.DiscardedMigrated += st.DiscardedMigrated
					total.NPBInsertions += st.NPBInsertions
				})
			}
		}
		if pc.policy.PrioritizePersistent && total.DiscardedMigrated == 0 || pc.policy.NonPersistentBarrier && total.NPBInsertions == 0 {
			t.Errorf("%s: streams reached %d discards and %d non-persistent barriers", pc.name, total.DiscardedMigrated, total.NPBInsertions)
		}
	}
}

// FuzzSchedulerVsScan is runSchedulerDiff on fuzzed streams. The first
// byte picks the policy and the slot count; each further byte is one
// operation.
func FuzzSchedulerVsScan(f *testing.F) {
	f.Add([]byte{0, 0, 2, 4, 0, 2, 5, 7, 5, 5})
	f.Add([]byte{3, 2, 10, 1, 4, 9, 0, 3, 255, 5, 6, 5})
	f.Add([]byte{7, 0, 4, 2, 4, 8, 2, 5, 63, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pc := diffPolicies[int(data[0])%len(diffPolicies)]
		runSchedulerDiff(t, pc.policy, 1+int(data[0]>>2)%3, data[1:])
	})
}
