package mgmt

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var errFlaky = errors.New("flaky device error")

// flaky is a fixed-latency in-package test device whose failure behaviour
// is scripted per request.
type flaky struct {
	device.Base
	eng *sim.Engine
	lat sim.Time
	// fail decides whether a request errors (nil = always healthy).
	fail func(r *trace.IORequest) bool

	writes int
}

func newFlaky(eng *sim.Engine, name string, lat sim.Time) *flaky {
	return &flaky{Base: device.NewBase(name, device.KindSSD, 1<<30), eng: eng, lat: lat}
}

func (f *flaky) Submit(r *trace.IORequest, done device.Completion) {
	if r.Op == trace.OpWrite {
		f.writes++
	}
	if f.fail != nil && f.fail(r) {
		r.Err = errFlaky
	}
	r.Issue = f.eng.Now()
	f.eng.Schedule(f.lat, func() {
		r.Complete = f.eng.Now()
		f.Metrics().Observe(r)
		if done != nil {
			done(r)
		}
	})
}

// failurePair builds two flaky-backed datastores on one engine.
func failurePair(t *testing.T) (*sim.Engine, *Manager, *Datastore, *Datastore, *flaky, *flaky) {
	t.Helper()
	eng := sim.NewEngine()
	fa := newFlaky(eng, "store-a", 10*sim.Microsecond)
	fb := newFlaky(eng, "store-b", 10*sim.Microsecond)
	a := NewDatastore(fa, 0)
	b := NewDatastore(fb, 0)
	mgr := NewManager(eng, quickCfg(), LightSRM(), []*Datastore{a, b})
	return eng, mgr, a, b, fa, fb
}

func TestMigrationRetriesTransientFailures(t *testing.T) {
	eng, mgr, a, b, _, fb := failurePair(t)
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The destination fails its first copyRetryLimit−1 writes, then heals:
	// no chunk can exhaust its budget, so every failure retries with
	// backoff and the migration still completes.
	fails := copyRetryLimit - 1
	fb.fail = func(r *trace.IORequest) bool {
		if r.Op == trace.OpWrite && fails > 0 {
			fails--
			return true
		}
		return false
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := mgr.Stats()
	if st.CopyRetries != copyRetryLimit-1 {
		t.Fatalf("retries = %d, want one per failed write (%d)", st.CopyRetries, copyRetryLimit-1)
	}
	if st.MigrationsAborted != 0 {
		t.Fatal("transient failures within the retry budget aborted the migration")
	}
	if st.MigrationsCompleted != 1 || v.Store() != b || v.Migrating() {
		t.Fatalf("migration did not complete: %+v, store=%s", st, v.Store().Dev.Name())
	}
}

func TestMigrationAbortsAfterRetryBudgetAndUnwinds(t *testing.T) {
	eng, mgr, a, b, _, fb := failurePair(t)
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The destination accepts a few chunks, then fails every write: some
	// blocks land on b before the retry budget is exhausted, so the abort
	// must copy them back.
	okWrites := 2
	fb.fail = func(r *trace.IORequest) bool {
		if r.Op != trace.OpWrite {
			return false
		}
		if okWrites > 0 {
			okWrites--
			return false
		}
		return true
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := mgr.Stats()
	if st.MigrationsAborted != 1 {
		t.Fatalf("aborted = %d, want 1", st.MigrationsAborted)
	}
	if st.MigrationsCompleted != 0 {
		t.Fatal("aborted migration also counted as completed")
	}
	if v.Store() != a || v.Migrating() || v.aborting || v.MigratedBlocks() != 0 {
		t.Fatalf("VMDK not consistent on source: store=%s migrating=%v migrated=%d",
			v.Store().Dev.Name(), v.Migrating(), v.MigratedBlocks())
	}
	if b.allocated != 0 {
		t.Fatalf("destination extent not released: %d bytes", b.allocated)
	}
	if len(mgr.active) != 0 {
		t.Fatal("aborted migration still active")
	}
	// The first chunk to exhaust its budget waited out the backoffs before
	// attempts 2, 3 and 4: 1×, 2× and 4× copyRetryBackoff.
	var sawAbort, sawUnwound bool
	for _, d := range mgr.Log().Entries() {
		if d.Kind == DecisionAbort {
			if floor := 7 * copyRetryBackoff; d.At < floor {
				t.Fatalf("abort at %v, before the %d attempts' backoff (%v) elapsed", d.At, copyRetryLimit, floor)
			}
			sawAbort = true
			if strings.Contains(d.Detail, "unwind complete") {
				sawUnwound = true
			}
		}
	}
	if !sawAbort || !sawUnwound {
		t.Fatalf("decision log missing abort entries:\n%s", mgr.Log())
	}
}

func TestAbortTimeWritesLandOnSourceAndClearBitmap(t *testing.T) {
	eng, _, a, b, fa, _ := failurePair(t)
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	base, err := b.allocExtent(v.Size)
	if err != nil {
		t.Fatal(err)
	}
	v.beginMigration(eng, b, base, true)
	v.markMigrated(0)
	v.beginAbort()
	srcWritesBefore := fa.writes
	done := false
	v.Submit(&trace.IORequest{Op: trace.OpWrite, Offset: 0, Size: BlockSize},
		func(*trace.IORequest) { done = true })
	eng.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if fa.writes != srcWritesBefore+1 {
		t.Fatal("abort-time write did not land on the source")
	}
	if v.blockMigrated(0) {
		t.Fatal("abort-time write did not clear the block's bitmap bit")
	}
}

// gateCopy drives a migration's lazy copy gate as an epoch's regate does
// under GateCopy. With pause, the destination measures slower than the
// source, so the copy costs more than it gains and stops; without, both
// stores measure idle (zero cost), which lets the copy run.
func gateCopy(mig *Migration, pause bool) {
	src, dst := StorePerf{Store: mig.src}, StorePerf{Store: mig.dst}
	if pause {
		src.PerfUS, dst.PerfUS = 100, 8000
	}
	mig.regate([]StorePerf{src, dst})
}

// TestStragglerRescanAfterResume exercises the maybeFinish cursor rescan:
// the copy cursor reaches the end of the disk while blocks the gate-paused
// copy skipped remain unmigrated behind it; reopening the gate must rescan
// and finish rather than stall with a partially-migrated VMDK.
func TestStragglerRescanAfterResume(t *testing.T) {
	eng, mgr, a, b, _, _ := failurePair(t)
	// Larger than CopyDepth×chunkBytes so the first pump cannot cover the
	// whole disk and the pause leaves unmigrated blocks behind.
	v, err := a.CreateVMDK(1, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	mig := mgr.active[0]
	gateCopy(mig, true)
	if !mig.paused {
		t.Fatal("cost above benefit did not pause the copy")
	}
	eng.Run() // drain the chunks issued before the pause
	if !v.Migrating() || len(mgr.active) == 0 {
		t.Fatal("migration completed despite the pause")
	}
	// Simulate mirroring marking scattered blocks while the copy was
	// paused and the cursor having scanned past them.
	v.markMigrated(v.Blocks() - 1)
	mig.cursor = v.Blocks()
	gateCopy(mig, false)
	if mig.paused {
		t.Fatal("an idle measurement did not reopen the gate")
	}
	eng.Run()
	if v.MigratedBlocks() != 0 || v.Migrating() {
		// finishMigration clears the bitmap; Migrating flips false.
		t.Fatalf("stragglers never migrated: %d blocks marked, migrating=%v",
			v.MigratedBlocks(), v.Migrating())
	}
	if mgr.Stats().MigrationsCompleted != 1 || v.Store() != b {
		t.Fatalf("migration did not complete after rescan: %+v", mgr.Stats())
	}
}

// TestAbortProceedsWhileOperatorPaused: a paused copy must not stall an
// unwind — a half-aborted VMDK cannot linger on a failing destination.
// The pause is the lazy cost/benefit gate's.
func TestAbortProceedsWhileOperatorPaused(t *testing.T) {
	eng, mgr, a, b, _, _ := failurePair(t)
	v, err := a.CreateVMDK(1, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(30 * sim.Microsecond) // let some chunks land on b
	mig := mgr.active[0]
	gateCopy(mig, true)
	if !mig.paused || v.MigratedBlocks() == 0 {
		t.Fatalf("test setup: paused=%v with %d blocks copied", mig.paused, v.MigratedBlocks())
	}
	mig.abort("test-induced abort")
	eng.Run()
	if mgr.Stats().MigrationsAborted != 1 {
		t.Fatal("abort not recorded")
	}
	if v.Store() != a || v.Migrating() || v.MigratedBlocks() != 0 {
		t.Fatalf("unwind stalled under a paused copy: store=%s migrated=%d",
			v.Store().Dev.Name(), v.MigratedBlocks())
	}
	if b.allocated != 0 {
		t.Fatal("destination extent not released")
	}
	if len(mgr.active) != 0 {
		t.Fatal("aborted migration still active")
	}
}

// TestCopyBackRetriesWithClampedBackoff fails every copy-back chunk's
// destination read, then its source write, streak times each: longer than
// the six doublings before the backoff clamps. The copy-back never gives
// up, so the unwind must still complete, with one retry counted per
// failed stage, no second abort, and the gap between a chunk's attempts
// doubling from copyRetryBackoff until it stops at 64×.
func TestCopyBackRetriesWithClampedBackoff(t *testing.T) {
	eng, mgr, a, b, fa, fb := failurePair(t)
	v, err := a.CreateVMDK(1, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	const streak = 8
	// The forward copy reads a and writes b, so every read of b and every
	// write of a is copy-back traffic. Chunks are keyed by offset.
	attempts := map[int64][]sim.Time{} // destination-read submit times
	readFails, writeFails := map[int64]int{}, map[int64]int{}
	failed := 0
	fb.fail = func(r *trace.IORequest) bool {
		if r.Op != trace.OpRead {
			return false
		}
		attempts[r.Offset] = append(attempts[r.Offset], eng.Now())
		if readFails[r.Offset] < streak {
			readFails[r.Offset]++
			failed++
			return true
		}
		return false
	}
	fa.fail = func(r *trace.IORequest) bool {
		if r.Op != trace.OpWrite || writeFails[r.Offset] >= streak {
			return false
		}
		writeFails[r.Offset]++
		failed++
		return true
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(30 * sim.Microsecond) // let some chunks land on b
	mig := mgr.active[0]
	if v.MigratedBlocks() == 0 || mgr.Stats().CopyRetries != 0 {
		t.Fatalf("test setup: %d blocks copied, %d retries before the unwind",
			v.MigratedBlocks(), mgr.Stats().CopyRetries)
	}
	mig.abort("test-induced abort")
	eng.Run()

	st := mgr.Stats()
	if st.MigrationsAborted != 1 {
		t.Fatalf("aborted = %d, want 1: copy-back failures must not abort again", st.MigrationsAborted)
	}
	if v.Store() != a || v.Migrating() || v.aborting || v.MigratedBlocks() != 0 {
		t.Fatalf("VMDK not consistent on source: store=%s migrating=%v migrated=%d",
			v.Store().Dev.Name(), v.Migrating(), v.MigratedBlocks())
	}
	if b.allocated != 0 || len(mgr.active) != 0 {
		t.Fatalf("unwind did not finish: %d bytes held on b, %d migrations active", b.allocated, len(mgr.active))
	}
	if len(attempts) == 0 {
		t.Fatal("no copy-back chunk ran")
	}
	if want := uint64(len(attempts) * 2 * streak); failed != int(want) || st.CopyRetries != want {
		t.Fatalf("retries = %d after %d injected failures, want %d: one per failed copy-back stage",
			st.CopyRetries, failed, want)
	}
	const lat = 10 * sim.Microsecond // each flaky stage's latency
	for off, at := range attempts {
		if len(at) != 2*streak+1 {
			t.Fatalf("chunk at %d made %d attempts, want %d", off, len(at), 2*streak+1)
		}
		for k := 0; k+1 < len(at); k++ {
			// Attempts 0..streak-1 fail at the read; the next streak
			// read, then fail at the write.
			stages := sim.Time(1)
			if k >= streak {
				stages = 2
			}
			wantBackoff := copyRetryBackoff << min(k, 6)
			if got := at[k+1] - at[k] - stages*lat; got != wantBackoff {
				t.Fatalf("chunk at %d: backoff before attempt %d = %v, want %v", off, k+1, got, wantBackoff)
			}
		}
	}
}

// TestQuarantineEvacuateReadmitLifecycle drives the full failure-aware
// management arc: error-rate quarantine → evacuation to a healthy store →
// probation → readmission.
func TestQuarantineEvacuateReadmitLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	fa := newFlaky(eng, "failing", 10*sim.Microsecond)
	fb := newFlaky(eng, "healthy", 10*sim.Microsecond)
	a := NewDatastore(fa, 0)
	b := NewDatastore(fb, 0)
	cfg := DefaultConfig()
	cfg.Window = sim.Millisecond
	cfg.MinWindowRequests = 2
	cfg.QuarantineMinErrors = 3
	cfg.ProbationWindows = 3
	mgr := NewManager(eng, cfg, LightSRM(), []*Datastore{a, b})
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Writes to the failing store error; reads still work, so the
	// evacuation copy can read the data off it.
	failing := true
	fa.fail = func(r *trace.IORequest) bool { return failing && r.Op == trace.OpWrite }
	p := workload.Profile{Name: "w", WriteRatio: 1.0, WriteRand: 0.5,
		IOSize: 4096, OIO: 4, Footprint: 1 << 20}
	r := workload.NewRunner(eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	eng.RunFor(20 * sim.Millisecond)
	if !a.Quarantined() && mgr.Stats().Quarantines == 0 {
		t.Fatalf("failing store never quarantined: %+v", mgr.Stats())
	}
	if mgr.Stats().Evacuations == 0 {
		t.Fatalf("no evacuation launched: %+v", mgr.Stats())
	}
	// Let the evacuation finish and probation elapse; the store heals.
	failing = false
	eng.RunFor(30 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	eng.Run()
	st := mgr.Stats()
	if v.Store() != b || v.Migrating() {
		t.Fatalf("VMDK not evacuated to healthy store: %s", v.Store().Dev.Name())
	}
	if st.Readmissions == 0 || a.Quarantined() {
		t.Fatalf("store never readmitted after probation: %+v, quarantined=%v", st, a.Quarantined())
	}
	// The decision log must tell the whole story in order.
	order := map[DecisionKind]int{}
	for i, d := range mgr.Log().Entries() {
		if _, seen := order[d.Kind]; !seen {
			order[d.Kind] = i
		}
	}
	qi, qOK := order[DecisionQuarantine]
	ei, eOK := order[DecisionEvacuate]
	ri, rOK := order[DecisionReadmit]
	if !qOK || !eOK || !rOK {
		t.Fatalf("decision log missing lifecycle entries:\n%s", mgr.Log())
	}
	if !(qi < ei && ei < ri) {
		t.Fatalf("lifecycle out of order: quarantine@%d evacuate@%d readmit@%d", qi, ei, ri)
	}
}

func TestQuarantinedStoreExcludedFromPlacement(t *testing.T) {
	eng := sim.NewEngine()
	fa := newFlaky(eng, "fast-but-failing", 5*sim.Microsecond)
	fb := newFlaky(eng, "slow-but-healthy", 50*sim.Microsecond)
	a := NewDatastore(fa, 0)
	b := NewDatastore(fb, 0)
	mgr := NewManager(eng, quickCfg(), BASIL(), []*Datastore{a, b})
	a.quarantined = true
	v, err := mgr.PlaceVMDK(1<<20, trace.WC{OIOs: 4, IOSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if v.Store() != b {
		t.Fatal("Eq. 4 placed onto a quarantined store")
	}
	a.quarantined = false
	mgr.stores[0].quarantined = false
}

func TestQuarantinedStoreExcludedFromBalancing(t *testing.T) {
	eng := sim.NewEngine()
	fa := newFlaky(eng, "a", 10*sim.Microsecond)
	fb := newFlaky(eng, "b", 10*sim.Microsecond)
	a := NewDatastore(fa, 0)
	b := NewDatastore(fb, 0)
	cfg := quickCfg()
	cfg.Window = sim.Millisecond
	cfg.MinWindowRequests = 2
	mgr := NewManager(eng, cfg, BASIL(), []*Datastore{a, b})
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// b is quarantined: even a maximal imbalance must not select it as a
	// migration destination.
	b.quarantined = true
	p := workload.Profile{Name: "w", WriteRatio: 0.5, ReadRand: 0.8, WriteRand: 0.8,
		IOSize: 4096, OIO: 8, Footprint: 1 << 20}
	r := workload.NewRunner(eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	eng.RunFor(20 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	eng.Run()
	if mgr.Stats().MigrationsStarted != 0 {
		t.Fatalf("migrated onto a quarantined store: %+v", mgr.Stats())
	}
}
