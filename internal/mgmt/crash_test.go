package mgmt

import (
	"testing"

	"repro/internal/sim"
)

// crashSchemes is the model-free scheme-family table the recovery property
// must hold over: eager copy without and with proposal gating, pure
// redirection, and the lazy gated-copy composition.
var crashSchemes = []struct {
	name   string
	scheme Scheme
}{
	{"basil", BASIL()},
	{"pesto", Pesto()},
	{"lightsrm", LightSRM()},
	{"lazy-redirect", Scheme{Name: "lazy-redirect", Gate: GateCopy, Redirect: true, Tagged: true}},
}

// journaledPair builds two healthy datastores under a manager with a
// strictly sequential copy engine (CopyDepth 1), so chunk
// boundaries are distinct instants a crash can land between.
func journaledPair(t *testing.T, scheme Scheme) (*sim.Engine, *Manager, *Datastore, *Datastore) {
	t.Helper()
	eng := sim.NewEngine()
	fa := newFlaky(eng, "store-a", 10*sim.Microsecond)
	fb := newFlaky(eng, "store-b", 10*sim.Microsecond)
	a := NewDatastore(fa, 0)
	b := NewDatastore(fb, 0)
	cfg := quickCfg()
	cfg.CopyDepth = 1
	mgr := NewManager(eng, cfg, scheme, []*Datastore{a, b})
	return eng, mgr, a, b
}

// chunkBoundaries runs a reference migration to completion and returns
// the distinct sim times at which copy chunks landed: the engine steps
// after which the manager's copied-byte count grew. Crash runs share the
// harness, so their timeline is identical up to the crash instant.
func chunkBoundaries(t *testing.T, scheme Scheme, size int64) []sim.Time {
	t.Helper()
	eng, mgr, a, b := journaledPair(t, scheme)
	v, err := a.CreateVMDK(1, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	var times []sim.Time
	copied := mgr.Stats().BytesCopied
	for eng.Step() {
		if c := mgr.Stats().BytesCopied; c != copied {
			copied = c
			if len(times) == 0 || times[len(times)-1] != eng.Now() {
				times = append(times, eng.Now())
			}
		}
	}
	if mgr.Stats().MigrationsCompleted != 1 {
		t.Fatalf("reference migration did not complete: %+v", mgr.Stats())
	}
	return times
}

// TestCrashAtEveryChunkBoundary is the recovery property test: for every
// scheme family, a crash landing exactly at each chunk boundary of a lazy
// migration — on the source side or on the destination side — must leave
// the VMDK either fully resumed at the destination or fully rolled back
// to the source, with a source-consistent bitmap, released extents,
// conserved migration budgets, and zero invariant violations.
func TestCrashAtEveryChunkBoundary(t *testing.T) {
	const chunks = 16
	const size = chunks * chunkBytes
	for _, fam := range crashSchemes {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			landed := chunkBoundaries(t, fam.scheme, size)
			if len(landed) != chunks {
				t.Fatalf("reference migration landed chunks at %d distinct times %v, want %d", len(landed), landed, chunks)
			}
			// Boundary 0 (sim time 1ns) crashes before any chunk lands.
			boundaries := append([]sim.Time{1}, landed...)
			for _, side := range []string{"src", "dst"} {
				for bi, at := range boundaries {
					eng, mgr, a, b := journaledPair(t, fam.scheme)
					v, err := a.CreateVMDK(1, size)
					if err != nil {
						t.Fatal(err)
					}
					if err := mgr.startMigration(v, b); err != nil {
						t.Fatal(err)
					}
					if err := eng.RunUntil(at); err != nil {
						t.Fatal(err)
					}
					dev := "store-a"
					if side == "dst" {
						dev = "store-b"
					}
					mgr.OnCrash(CrashScope{Node: -1, Device: dev})
					if vs := mgr.CheckInvariants(); len(vs) != 0 {
						t.Fatalf("%s crash at boundary %d (@%v): post-recovery violations: %v", side, bi, at, vs)
					}
					if err := eng.Run(); err != nil {
						t.Fatal(err)
					}

					st := mgr.Stats()
					if vs := mgr.CheckInvariants(); len(vs) != 0 {
						t.Fatalf("%s crash at boundary %d (@%v): final violations: %v", side, bi, at, vs)
					}
					if len(mgr.active) != 0 {
						t.Fatalf("%s crash at boundary %d: migration never settled", side, bi)
					}
					if st.MigrationsStarted != st.MigrationsCompleted+st.MigrationsAborted {
						t.Fatalf("%s crash at boundary %d: budget leaked: %+v", side, bi, st)
					}
					if v.Migrating() || v.aborting || v.MigratedBlocks() != 0 {
						t.Fatalf("%s crash at boundary %d: bitmap not settled: migrating=%v aborting=%v migrated=%d",
							side, bi, v.Migrating(), v.aborting, v.MigratedBlocks())
					}
					recovered := st.RecoveryResumes+st.RecoveryRollbacks > 0
					switch {
					case recovered && side == "src":
						// Source power loss, destination intact: the journaled
						// progress stands and the move resumes forward.
						if v.Store() != b || st.MigrationsCompleted != 1 || st.RecoveryResumes != 1 {
							t.Fatalf("src crash at boundary %d: not fully resumed: store=%s %+v",
								bi, v.Store().Dev.Name(), st)
						}
						if a.allocated != 0 {
							t.Fatalf("src crash at boundary %d: source extent not released", bi)
						}
					case recovered && side == "dst":
						// Destination power loss: un-persisted dst state is
						// untrustworthy, the move rolls back wholesale.
						if v.Store() != a || st.MigrationsAborted != 1 || st.RecoveryRollbacks != 1 {
							t.Fatalf("dst crash at boundary %d: not fully rolled back: store=%s %+v",
								bi, v.Store().Dev.Name(), st)
						}
						if b.allocated != 0 {
							t.Fatalf("dst crash at boundary %d: destination extent not released", bi)
						}
					default:
						// The crash landed after the final chunk committed the
						// move — the completed migration stands untouched.
						if v.Store() != b || st.MigrationsCompleted != 1 {
							t.Fatalf("%s crash at boundary %d: completed move disturbed: store=%s %+v",
								side, bi, v.Store().Dev.Name(), st)
						}
					}
				}
			}
		})
	}
}

// TestJournalEpochFenceDropsPendingRecords pins the durability model: lazy
// appends whose DurableAt is still in the future when the epoch bumps are
// discarded from the log, sync appends and settled lazy ones are kept,
// and replay sees only what was kept.
func TestJournalEpochFenceDropsPendingRecords(t *testing.T) {
	eng := sim.NewEngine()
	jn := &Journal{eng: eng}
	jn.appendSync(JournalRecord{Kind: JournalIntent, Src: "a", Dst: "b", Redirect: true})
	jn.appendLazy(JournalRecord{Kind: JournalProgress, Block: 0, Count: 8})
	eng.RunFor(10 * sim.Microsecond) // first progress record becomes durable
	jn.appendLazy(JournalRecord{Kind: JournalProgress, Block: 8, Count: 8})
	ep := jn.Epoch()
	jn.bumpEpoch() // crash: the pending record had not persisted
	if len(jn.records) != 2 || jn.records[0].Kind != JournalIntent ||
		jn.records[1].Kind != JournalProgress || jn.records[1].Block != 0 {
		t.Fatalf("records after the crash = %+v, want the sync intent and the settled progress [0,8)", jn.records)
	}
	if jn.AppendIfEpoch(ep, JournalRecord{Kind: JournalProgress, Block: 16, Count: 1}) {
		t.Fatal("append accepted across the epoch fence")
	}
	st := jn.replay(256)
	if !st.live || st.migrated != 8 {
		t.Fatalf("replay: live=%v migrated=%d, want 8 (only the durable chunk)", st.live, st.migrated)
	}
	if !st.redirect || st.src != "a" || st.dst != "b" {
		t.Fatalf("replay lost intent fields: %+v", st)
	}
}

// TestJournalReplayRevertAndAbort: Revert records clear blocks and an
// Abort record marks the replayed state as unwinding.
func TestJournalReplayRevertAndAbort(t *testing.T) {
	eng := sim.NewEngine()
	jn := &Journal{eng: eng}
	jn.appendSync(JournalRecord{Kind: JournalIntent, Src: "a", Dst: "b"})
	jn.appendSync(JournalRecord{Kind: JournalProgress, Block: 0, Count: 16})
	jn.appendSync(JournalRecord{Kind: JournalAbort})
	jn.appendSync(JournalRecord{Kind: JournalRevert, Block: 0, Count: 4})
	st := jn.replay(64)
	if !st.live || !st.aborting {
		t.Fatalf("replay: live=%v aborting=%v", st.live, st.aborting)
	}
	if st.migrated != 12 {
		t.Fatalf("replay migrated = %d, want 12 (16 forward, 4 reverted)", st.migrated)
	}
	jn.appendSync(JournalRecord{Kind: JournalDone})
	if st := jn.replay(64); st.live {
		t.Fatal("replay still live after Done")
	}
}
