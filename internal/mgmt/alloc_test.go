//go:build !race

// The race detector instruments allocations of its own, so the zero-alloc
// guard only means something in an unraced build.

package mgmt

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestStorageSteadyStateZeroAllocs pins the storage request path as
// allocation-free once warm: workload.Runner slots → VMDK forward records
// → datastore Monitor submissions → NVDIMM, SSD and HDD request records,
// the SSD's flush records and its FTL's pending queue and GC relocation,
// down to the engine's timer pool.
//
// One node's three devices each back a runner's VMDK: persistent writes
// with barriers on the NVDIMM, a think-time runner on the SSD, sequential
// I/O on the HDD. A fourth VMDK is mid-migration from the NVDIMM to the
// SSD with I/O mirroring, so its writes go through the journal's
// record-then-ack path and its reads split between the two stores. The
// SSD's write footprint is most of its flash, so GC runs throughout. No
// manager runs, so no epoch or migration copy traffic is measured.
func TestStorageSteadyStateZeroAllocs(t *testing.T) {
	n := newNode(t)
	eng := n.eng
	nvDS, sdDS, hdDS := n.dss[0], n.dss[1], n.dss[2]
	rng := sim.NewRNG(3)
	// The SSD's GC count is visible only through its telemetry gauges.
	reg := telemetry.NewRegistry()
	n.sd.RegisterTelemetry(reg, "ssd.")

	vmdk := func(ds *Datastore, id int, size int64) *VMDK {
		v, err := ds.CreateVMDK(id, size)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	persistent := workload.NewRunner(eng, rng.Split(), workload.Profile{
		Name: "persistent", WriteRatio: 0.7, ReadRand: 0.5, WriteRand: 0.5,
		IOSize: 8192, OIO: 4, Footprint: 4 << 20, Persistent: true, BarrierEvery: 3,
	}, vmdk(nvDS, 1, 4<<20), 1)
	thinking := workload.NewRunner(eng, rng.Split(), workload.Profile{
		Name: "thinking", WriteRatio: 0.6, ReadRand: 1, WriteRand: 1,
		IOSize: 4096, OIO: 6, Footprint: 12 << 20, ThinkTime: 20 * sim.Microsecond,
	}, vmdk(sdDS, 2, 12<<20), 2)
	sequential := workload.NewRunner(eng, rng.Split(), workload.Profile{
		Name: "sequential", WriteRatio: 0.3, IOSize: 16384, OIO: 2, Footprint: 8 << 20,
	}, vmdk(hdDS, 3, 8<<20), 3)

	mirrored := vmdk(nvDS, 4, 1<<20)
	base, err := sdDS.allocExtent(mirrored.Size)
	if err != nil {
		t.Fatal(err)
	}
	mirrored.beginMigration(eng, sdDS, base, true)
	// The open migration's journal keeps every mirrored write's record
	// until the migration closes; its backing array is the log's storage,
	// not per-request state, so it gets room for the whole run up front.
	mirrored.jn.records = make([]JournalRecord, 0, journalRoom)
	mirroring := workload.NewRunner(eng, rng.Split(), workload.Profile{
		Name: "mirroring", WriteRatio: 0.3, ReadRand: 1, WriteRand: 1,
		IOSize: 4096, OIO: 3, Footprint: 1 << 20,
	}, mirrored, 4)

	runners := []*workload.Runner{persistent, thinking, sequential, mirroring}
	for _, r := range runners {
		r.Start()
	}
	eng.RunFor(400 * sim.Millisecond)

	before := takeStorageCounts(n, reg, runners, &mirrored.jn)
	const steps = 50000
	step := func() {
		for i := 0; i < steps; i++ {
			if !eng.Step() {
				t.Fatal("event queue drained while the runners run")
			}
		}
	}
	// One run: AllocsPerRun truncates the per-run average, so a single
	// run of many steps is the only way a lone allocation still shows.
	allocs := testing.AllocsPerRun(1, step)
	after := takeStorageCounts(n, reg, runners, &mirrored.jn)

	// The window must have exercised every path it claims to cover.
	for i, r := range runners {
		if after.completed[i] == before.completed[i] {
			t.Errorf("runner %s completed nothing in the measured window", r.Profile().Name)
		}
	}
	for _, c := range []struct {
		name string
		d    uint64
	}{
		{"NVDIMM requests", after.nv - before.nv},
		{"SSD requests", after.sd - before.sd},
		{"HDD requests", after.hd - before.hd},
		{"NVDIMM barriers", after.barriers - before.barriers},
		{"SSD garbage collections", after.gcRuns - before.gcRuns},
		{"journaled mirrored writes", after.journaled - before.journaled},
	} {
		if c.d == 0 {
			t.Errorf("no %s in the measured window", c.name)
		}
	}
	if after.journaled > journalRoom {
		t.Fatalf("journal holds %d records, more than the %d it was given room for", after.journaled, journalRoom)
	}
	if allocs != 0 {
		t.Fatalf("storage steady state allocated %v times over %d engine steps (%.4f per step), want 0",
			allocs, steps, allocs/steps)
	}
	t.Logf("0 allocations over %d engine steps, %d requests", steps,
		after.nv+after.sd+after.hd-before.nv-before.sd-before.hd)
}

// journalRoom is the record capacity the test journal starts with.
const journalRoom = 4096

type storageCounts struct {
	completed        []uint64
	nv, sd, hd       uint64
	barriers, gcRuns uint64
	journaled        uint64
}

func takeStorageCounts(n *node, reg *telemetry.Registry, runners []*workload.Runner, jn *Journal) storageCounts {
	c := storageCounts{
		nv:        n.nv.Metrics().TotalReads + n.nv.Metrics().TotalWrites,
		sd:        n.sd.Metrics().TotalReads + n.sd.Metrics().TotalWrites,
		hd:        n.hd.Metrics().TotalReads + n.hd.Metrics().TotalWrites,
		barriers:  n.nv.Scheduler().Stats().Barriers,
		journaled: uint64(len(jn.records)),
	}
	for _, p := range reg.Snapshot() {
		if p.Name == "ssd.ftl.gc_runs" {
			c.gcRuns = uint64(p.Value)
		}
	}
	for _, r := range runners {
		c.completed = append(c.completed, r.Completed()+r.Errored())
	}
	return c
}

// TestMigrationCopySteadyStateZeroAllocs pins the copy engine as
// allocation-free once warm, in both directions: each chunk's read, write
// and callbacks live in a pooled chunk record, its block buffer is
// reused, a retry's backoff is a bound callback on the engine, and each
// landed chunk's journal runs go into the VMDK's journal. A 256 MiB
// VMDK moves from the NVDIMM to the SSD of one node (no network hop)
// with four chunks in flight. The journal keeps the open migration's
// records, so, as in TestStorageSteadyStateZeroAllocs, it gets
// journalRoom records of storage up front.
//
// The forward window must land copy chunks, journal progress runs, and
// end with the migration still running. The copy-back window starts after
// more than half the VMDK has moved and the migration is aborted; every
// fifth write to the source fails, so it must also retry chunks, journal
// revert runs, and end with blocks still to carry back.
func TestMigrationCopySteadyStateZeroAllocs(t *testing.T) {
	const steps = 50000
	// start begins the migration with its source writes failing as the
	// wrapper decides.
	start := func(t *testing.T) (*sim.Engine, *Manager, *VMDK) {
		n := newNode(t)
		src := NewDatastore(&failEvery{Device: n.nv, k: 5}, 0)
		mgr := NewManager(n.eng, quickCfg(), Full(), []*Datastore{src, n.dss[1]})
		v, err := src.CreateVMDK(1, 256<<20)
		if err != nil {
			t.Fatal(err)
		}
		v.jn.records = make([]JournalRecord, 0, journalRoom)
		if err := mgr.startMigration(v, n.dss[1]); err != nil {
			t.Fatal(err)
		}
		return n.eng, mgr, v
	}
	measure := func(t *testing.T, eng *sim.Engine) float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < steps; i++ {
				if !eng.Step() {
					t.Fatal("event queue drained while the copy runs")
				}
			}
		})
	}
	// journaled counts the records of kind appended since the journal
	// held from records, and fails if the journal outgrew its room.
	journaled := func(t *testing.T, v *VMDK, from int, kind JournalKind) int {
		if n := len(v.jn.records); n > journalRoom {
			t.Fatalf("journal holds %d records, more than the %d it was given room for", n, journalRoom)
		}
		k := 0
		for _, r := range v.jn.records[from:] {
			if r.Kind == kind {
				k++
			}
		}
		return k
	}

	t.Run("forward", func(t *testing.T) {
		eng, mgr, v := start(t)
		eng.RunFor(50 * sim.Millisecond)
		before, from := mgr.Stats().BytesCopied, len(v.jn.records)
		allocs := measure(t, eng)
		copied := mgr.Stats().BytesCopied - before
		progress := journaled(t, v, from, JournalProgress)
		if copied == 0 || progress == 0 || v.MigratedBlocks() == v.Blocks() {
			t.Fatalf("measured window copied %d bytes in %d progress runs, %d of %d blocks migrated; want copying throughout",
				copied, progress, v.MigratedBlocks(), v.Blocks())
		}
		if allocs != 0 {
			t.Fatalf("forward copy allocated %v times over %d engine steps, want 0", allocs, steps)
		}
		t.Logf("0 allocations over %d engine steps, %d chunks copied, %d progress runs journaled",
			steps, copied/chunkBytes, progress)
	})

	t.Run("copy-back", func(t *testing.T) {
		eng, mgr, v := start(t)
		for v.MigratedBlocks() <= v.Blocks()/2 {
			if !eng.Step() {
				t.Fatal("event queue drained before half the VMDK moved")
			}
		}
		mgr.active[0].abort("test-induced abort")
		eng.RunFor(10 * sim.Millisecond)
		before, left, from := mgr.Stats().CopyRetries, v.MigratedBlocks(), len(v.jn.records)
		allocs := measure(t, eng)
		retries, back := mgr.Stats().CopyRetries-before, left-v.MigratedBlocks()
		revert := journaled(t, v, from, JournalRevert)
		if retries == 0 || back <= 0 || revert == 0 || v.MigratedBlocks() == 0 || mgr.Stats().MigrationsAborted != 1 {
			t.Fatalf("measured window counted %d retries and carried back %d blocks in %d revert runs, %d left, %d aborts; want retrying copy-back throughout",
				retries, back, revert, v.MigratedBlocks(), mgr.Stats().MigrationsAborted)
		}
		if allocs != 0 {
			t.Fatalf("copy-back allocated %v times over %d engine steps, want 0", allocs, steps)
		}
		t.Logf("0 allocations over %d engine steps, %d blocks carried back in %d revert runs, %d retries",
			steps, back, revert, retries)
	})
}

// failEvery wraps a device and pre-marks every k-th write it is given as
// failed. The NVDIMM and SSD models complete a pre-marked request with its
// error, as under fault injection.
type failEvery struct {
	device.Device
	k, writes int
}

func (f *failEvery) Submit(r *trace.IORequest, done device.Completion) {
	if r.Op == trace.OpWrite {
		f.writes++
		if f.writes%f.k == 0 {
			r.Err = errFlaky
		}
	}
	f.Device.Submit(r, done)
}
