package mgmt

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// refJournal is the full-log journal the per-VMDK one replaced, kept as a
// test-only reference: one slice holding every record of every VMDK for
// the whole run, a per-VMDK epoch map, and a replay and crash fence that
// filter the slice by VMDK.
type refJournal struct {
	eng     *sim.Engine
	records []refRecord
	epochs  map[int]uint64
}

type refRecord struct {
	vmdk int
	rec  JournalRecord
}

func newRefJournal(eng *sim.Engine) *refJournal {
	return &refJournal{eng: eng, epochs: make(map[int]uint64)}
}

func (j *refJournal) append(vmdk int, rec JournalRecord, durableAt sim.Time) {
	rec.At = j.eng.Now()
	rec.DurableAt = durableAt
	j.records = append(j.records, refRecord{vmdk, rec})
}

func (j *refJournal) appendSync(vmdk int, rec JournalRecord) { j.append(vmdk, rec, j.eng.Now()) }

func (j *refJournal) appendLazy(vmdk int, rec JournalRecord) {
	j.append(vmdk, rec, j.eng.Now()+journalAppendDelay)
}

func (j *refJournal) AppendIfEpoch(vmdk int, ep uint64, rec JournalRecord) bool {
	if j.epochs[vmdk] != ep {
		return false
	}
	j.appendSync(vmdk, rec)
	return true
}

func (j *refJournal) bumpEpoch(vmdk int) {
	j.epochs[vmdk]++
	now := j.eng.Now()
	kept := j.records[:0]
	for _, r := range j.records {
		if r.vmdk == vmdk && r.rec.DurableAt > now {
			continue
		}
		kept = append(kept, r)
	}
	j.records = kept
}

func (j *refJournal) replay(vmdk int, blocks int64) replayState {
	var st replayState
	now := j.eng.Now()
	for _, rr := range j.records {
		r := rr.rec
		if rr.vmdk != vmdk || r.DurableAt > now {
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

// since returns vmdk's records from its last intent, commit or done on:
// the part of its full history a per-VMDK journal must still hold.
func (j *refJournal) since(vmdk int) []JournalRecord {
	var out []JournalRecord
	for _, rr := range j.records {
		if rr.vmdk != vmdk {
			continue
		}
		if k := rr.rec.Kind; k == JournalIntent || k == JournalCommit || k == JournalDone {
			out = out[:0]
		}
		out = append(out, rr.rec)
	}
	return out
}

const (
	fuzzVMDKs  = 3
	fuzzBlocks = 100 // not a multiple of 64: the bitmap has a partial word
)

// runJournalOps drives fuzzVMDKs per-VMDK journals and the full-log
// reference with the same operations decoded from data, two bytes each:
// the first picks the VMDK (high nibble) and the operation (low nibble,
// mod 12), the second is its argument. After every operation each VMDK's replay, epoch
// and held records are compared against the reference.
func runJournalOps(t *testing.T, data []byte) {
	eng := sim.NewEngine()
	ref := newRefJournal(eng)
	var jns [fuzzVMDKs]Journal
	var captured [fuzzVMDKs]uint64 // epoch captured at a write's submit
	for i := range jns {
		jns[i].eng = eng
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		v, kind := int(op>>4)%fuzzVMDKs, (op&15)%12
		jn := &jns[v]
		run := JournalRecord{Block: int64(arg) % (fuzzBlocks + 8), Count: 1 + int64(arg)%13}
		switch kind {
		case 0: // intent
			rec := JournalRecord{Kind: JournalIntent, Src: "src", Dst: "dst",
				DstBase: int64(arg) << 20, Redirect: arg&1 == 1}
			jn.appendSync(rec)
			ref.appendSync(v, rec)
		case 1, 2, 3, 4: // progress or revert, sync or lazy
			run.Kind = JournalProgress
			if kind >= 3 {
				run.Kind = JournalRevert
			}
			if kind%2 == 1 {
				jn.appendSync(run)
				ref.appendSync(v, run)
			} else {
				jn.appendLazy(run)
				ref.appendLazy(v, run)
			}
		case 5, 6, 7: // abort, commit, done
			rec := JournalRecord{Kind: [...]JournalKind{JournalAbort, JournalCommit, JournalDone}[kind-5]}
			jn.appendSync(rec)
			ref.appendSync(v, rec)
		case 8: // crash
			jn.bumpEpoch()
			ref.bumpEpoch(v)
		case 9: // a guarded write submits
			captured[v] = jn.Epoch()
		case 10: // ... and completes
			run.Kind = JournalProgress
			if arg&1 == 1 {
				run.Kind = JournalRevert
			}
			got, want := jn.AppendIfEpoch(captured[v], run), ref.AppendIfEpoch(v, captured[v], run)
			if got != want {
				t.Fatalf("op %d: vmdk%d AppendIfEpoch(%d) = %v, full log %v", i/2, v, captured[v], got, want)
			}
		case 11: // the clock advances 0–7.5 µs, across the lazy delay
			eng.RunFor(sim.Time(arg%16) * 500 * sim.Nanosecond)
		}
		for u := range jns {
			compareJournal(t, i/2, u, &jns[u], ref)
		}
	}
}

// compareJournal fails unless VMDK u's journal agrees with the full log.
func compareJournal(t *testing.T, op, u int, jn *Journal, ref *refJournal) {
	t.Helper()
	if got, want := jn.Epoch(), ref.epochs[u]; got != want {
		t.Fatalf("op %d: vmdk%d epoch %d, full log %d", op, u, got, want)
	}
	got, want := jn.replay(fuzzBlocks), ref.replay(u, fuzzBlocks)
	if got.live != want.live || got.aborting != want.aborting || got.src != want.src ||
		got.dst != want.dst || got.dstBase != want.dstBase || got.redirect != want.redirect ||
		got.migrated != want.migrated || !slices.Equal(got.bitmap, want.bitmap) {
		t.Fatalf("op %d: vmdk%d replay %+v, full log %+v", op, u, got, want)
	}
	if held := ref.since(u); !slices.Equal(jn.records, held) {
		t.Fatalf("op %d: vmdk%d holds %+v, want the full log's records since its last restart %+v",
			op, u, jn.records, held)
	}
}

// FuzzJournalVsFullLog checks that a per-VMDK journal which restarts at
// every intent, commit and done replays exactly as the full log does,
// under interleaved sync and lazy progress and revert, aborts, crashes,
// fenced write acks and clock advances over three VMDKs, and that it
// holds only the records since its last restart.
func FuzzJournalVsFullLog(f *testing.F) {
	// Each pair is (16·vmdk + operation, argument), operations numbered
	// as in runJournalOps. A forward migration with lazy progress, a crash
	// inside the lazy window, then commit and a second migration on
	// another VMDK.
	f.Add([]byte{0, 1, 2, 8, 11, 6, 2, 20, 8, 0, 1, 30, 6, 0, 16, 3, 18, 40, 11, 2, 22, 0})
	// Abort with copy-back reverts, a fenced ack across a crash, done.
	f.Add([]byte{0, 0, 1, 0, 1, 64, 9, 0, 5, 0, 4, 10, 8, 0, 10, 3, 3, 70, 11, 5, 7, 0, 10, 4})
	// A late ack after commit, then a new intent on the same VMDK.
	f.Add([]byte{32, 2, 33, 90, 41, 0, 38, 0, 42, 5, 43, 4, 32, 3, 34, 9, 43, 8, 42, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		runJournalOps(t, data)
	})
}

// TestJournalMatchesFullLog runs one long seeded operation stream through
// the fuzz target's comparison, so plain go test crosses many restarts,
// crashes and fence trips.
func TestJournalMatchesFullLog(t *testing.T) {
	rng := sim.NewRNG(31)
	data := make([]byte, 8000)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	runJournalOps(t, data)
}

// TestJournalHoldsOnlyOpenMigration migrates one VMDK back and forth many
// times and checks, after every engine step, that its journal holds only
// the open migration's records: with no migration open, at most the
// closing commit; with one open, its intent and the progress runs since,
// at most one per chunk. The full log would hold every migration's
// records.
func TestJournalHoldsOnlyOpenMigration(t *testing.T) {
	const chunks, moves = 8, 40
	eng, mgr, a, b := journaledPair(t, BASIL())
	v, err := a.CreateVMDK(1, chunks*chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i := 0; i < moves; i++ {
		dst := b
		if i%2 == 1 {
			dst = a
		}
		if err := mgr.startMigration(v, dst); err != nil {
			t.Fatal(err)
		}
		for eng.Step() {
			recs := v.jn.records
			peak = max(peak, len(recs))
			switch {
			case !v.Migrating():
				if len(recs) != 1 || recs[0].Kind != JournalCommit {
					t.Fatalf("move %d: no migration open, journal holds %+v, want only the commit", i, recs)
				}
			case len(recs) == 0 || recs[0].Kind != JournalIntent || len(recs) > chunks+1:
				t.Fatalf("move %d: journal holds %+v, want the intent and at most %d progress runs", i, recs, chunks)
			}
		}
	}
	if got := mgr.Stats().MigrationsCompleted; got != moves {
		t.Fatalf("%d migrations completed, want %d", got, moves)
	}
	if peak < 2 {
		t.Fatalf("journal peaked at %d records; the check never saw a progress run", peak)
	}
}
