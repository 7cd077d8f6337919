package mgmt

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/hdd"
	"repro/internal/nvdimm"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// node bundles a small three-device test hierarchy.
type node struct {
	eng *sim.Engine
	ic  *bus.Interconnect
	nv  *nvdimm.NVDIMM
	sd  *ssd.SSD
	hd  *hdd.HDD
	dss []*Datastore
}

func newNode(t *testing.T) *node {
	t.Helper()
	eng := sim.NewEngine()
	ic := bus.NewInterconnect(eng, 1)
	nvCfg := nvdimm.DefaultConfig("nvdimm0", 512<<20, 128)
	nvCfg.Flash.NumChannels = 4
	nvCfg.Flash.ChipsPerChannel = 2
	nvCfg.Flash.PagesPerBlock = 32
	nvCfg.CacheBlocks = 512
	nv := nvdimm.New(eng, ic.Channel(0), nvCfg)

	sdCfg := ssd.DefaultConfig("ssd0", 1<<30, 128)
	sdCfg.Flash.NumChannels = 4
	sdCfg.Flash.ChipsPerChannel = 2
	sdCfg.Flash.PagesPerBlock = 32
	sd := ssd.New(eng, sdCfg)

	hd := hdd.New(eng, hdd.Config{Name: "hdd0", Capacity: 1 << 40, Seed: 1})

	n := &node{eng: eng, ic: ic, nv: nv, sd: sd, hd: hd}
	n.dss = []*Datastore{
		NewDatastore(nv, 0),
		NewDatastore(sd, 0),
		NewDatastore(hd, 0),
	}
	return n
}

func quickCfg() Config {
	cfg := DefaultConfig()
	// HDD random requests take ~5-10ms; windows must be long enough for
	// the slowest device to complete MinWindowRequests.
	cfg.Window = 25 * sim.Millisecond
	cfg.MinWindowRequests = 3
	return cfg
}

func TestCreateVMDKAllocates(t *testing.T) {
	n := newNode(t)
	ds := n.dss[0]
	v, err := ds.CreateVMDK(1, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumVMDKs() != 1 || ds.allocated != 64<<20 {
		t.Fatalf("allocated = %d, vmdks = %d", ds.allocated, ds.NumVMDKs())
	}
	if v.Blocks() != (64<<20)/BlockSize {
		t.Fatalf("blocks = %d", v.Blocks())
	}
	if n.nv.Used() != 64<<20 {
		t.Fatal("device used-bytes not synced")
	}
}

func TestCreateVMDKRejectsOversize(t *testing.T) {
	n := newNode(t)
	if _, err := n.dss[0].CreateVMDK(1, 1<<40); err == nil {
		t.Fatal("oversize VMDK accepted")
	}
	if _, err := n.dss[0].CreateVMDK(2, 0); err == nil {
		t.Fatal("zero-size VMDK accepted")
	}
}

func TestVMDKRoutesIO(t *testing.T) {
	n := newNode(t)
	v, _ := n.dss[0].CreateVMDK(1, 16<<20)
	done := false
	v.Submit(&trace.IORequest{Op: trace.OpWrite, Offset: 4096, Size: 4096},
		func(*trace.IORequest) { done = true })
	n.eng.Run()
	if !done {
		t.Fatal("request never completed")
	}
	if v.windowRequests != 1 {
		t.Fatalf("window requests = %d", v.windowRequests)
	}
	if n.nv.Metrics().TotalWrites != 1 {
		t.Fatal("request did not reach the device")
	}
}

func TestMirroringRedirectsWrites(t *testing.T) {
	n := newNode(t)
	src, dst := n.dss[0], n.dss[1]
	v, _ := src.CreateVMDK(1, 1<<20)
	base, err := dst.allocExtent(v.Size)
	if err != nil {
		t.Fatal(err)
	}
	v.beginMigration(n.eng, dst, base, true)

	// Writes go to the destination and mark blocks migrated.
	v.Submit(&trace.IORequest{Op: trace.OpWrite, Offset: 0, Size: 4096}, nil)
	n.eng.Run()
	if v.MigratedBlocks() != 1 {
		t.Fatalf("migrated blocks = %d", v.MigratedBlocks())
	}
	if n.sd.Metrics().TotalWrites != 1 {
		t.Fatal("mirrored write did not reach destination")
	}

	// Reads of migrated blocks go to the destination; others to source.
	v.Submit(&trace.IORequest{Op: trace.OpRead, Offset: 0, Size: 4096}, nil)
	v.Submit(&trace.IORequest{Op: trace.OpRead, Offset: 8192, Size: 4096}, nil)
	n.eng.Run()
	if n.sd.Metrics().TotalReads != 1 {
		t.Fatalf("dst reads = %d, want 1", n.sd.Metrics().TotalReads)
	}
	if n.nv.Metrics().TotalReads != 1 {
		t.Fatalf("src reads = %d, want 1", n.nv.Metrics().TotalReads)
	}
}

func TestBitmapOps(t *testing.T) {
	n := newNode(t)
	v, _ := n.dss[0].CreateVMDK(1, 1<<20)
	base, _ := n.dss[1].allocExtent(v.Size)
	v.beginMigration(n.eng, n.dss[1], base, false)
	if v.blockMigrated(5) {
		t.Fatal("fresh bitmap has set bits")
	}
	v.markMigrated(5)
	v.markMigrated(5) // idempotent
	if !v.blockMigrated(5) || v.MigratedBlocks() != 1 {
		t.Fatalf("bitmap mark failed: %d", v.MigratedBlocks())
	}
	v.finishMigration()
	if v.Migrating() || v.Store() != n.dss[1] {
		t.Fatal("finishMigration did not commit")
	}
}

func TestManagerMigratesFromOverloadedStore(t *testing.T) {
	n := newNode(t)
	// All load on the HDD (slow), NVDIMM idle: strong imbalance.
	v, _ := n.dss[2].CreateVMDK(1, 8<<20)
	mgr := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	p := workload.Profile{Name: "w", WriteRatio: 0.3, ReadRand: 0.8, WriteRand: 0.8,
		IOSize: 4096, OIO: 4, Footprint: 8 << 20}
	r := workload.NewRunner(n.eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	n.eng.RunFor(500 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	n.eng.Run()
	st := mgr.Stats()
	if st.MigrationsStarted == 0 {
		t.Fatal("no migration started despite overload")
	}
	if st.MigrationsCompleted == 0 {
		t.Fatal("migration never completed")
	}
	if v.Store() == n.dss[2] {
		t.Fatal("VMDK still on the overloaded HDD")
	}
	if st.BytesCopied == 0 {
		t.Fatal("no bytes copied")
	}
}

func TestLightSRMMirrorsDuringMigration(t *testing.T) {
	n := newNode(t)
	v, _ := n.dss[2].CreateVMDK(1, 8<<20)
	mgr := NewManager(n.eng, quickCfg(), LightSRM(), n.dss)
	p := workload.Profile{Name: "w", WriteRatio: 0.9, ReadRand: 0.5, WriteRand: 0.5,
		IOSize: 4096, OIO: 4, Footprint: 8 << 20}
	r := workload.NewRunner(n.eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	n.eng.RunFor(600 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	n.eng.Run()
	st := mgr.Stats()
	if st.MigrationsCompleted == 0 {
		t.Skip("no migration completed in window; scenario too mild")
	}
	if st.BytesMirrored == 0 {
		t.Fatal("write-heavy workload should mirror some blocks")
	}
}

func TestTauGatesMigration(t *testing.T) {
	// Against an idle store the imbalance fraction Δ/max is exactly 1,
	// so any τ < 1 triggers; τ > 1 disables migration entirely.
	n := newNode(t)
	v, _ := n.dss[2].CreateVMDK(1, 8<<20)
	cfg := quickCfg()
	cfg.Tau = 1.5
	mgr := NewManager(n.eng, cfg, BASIL(), n.dss)
	p := workload.Profile{Name: "w", WriteRatio: 0.3, ReadRand: 0.8, WriteRand: 0.8,
		IOSize: 4096, OIO: 4, Footprint: 8 << 20}
	r := workload.NewRunner(n.eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	n.eng.RunFor(300 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	n.eng.Run()
	if mgr.Stats().MigrationsStarted != 0 {
		t.Fatalf("τ=0.99 still migrated %d times", mgr.Stats().MigrationsStarted)
	}
}

func TestPlaceVMDKPrefersIdleStore(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	// Load the HDD heavily first so its window shows high latency.
	busyV, _ := n.dss[2].CreateVMDK(99, 8<<20)
	p := workload.Profile{Name: "w", WriteRatio: 0.3, ReadRand: 1, WriteRand: 1,
		IOSize: 4096, OIO: 8, Footprint: 8 << 20}
	r := workload.NewRunner(n.eng, sim.NewRNG(1), p, busyV, 0)
	r.Start()
	n.eng.RunFor(20 * sim.Millisecond)
	v, err := mgr.PlaceVMDK(16<<20, trace.WC{OIOs: 4, IOSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	r.Stop()
	n.eng.Run()
	if v.Store() == n.dss[2] {
		t.Fatal("placement chose the overloaded HDD")
	}
}

func TestPlaceVMDKCapacityFallback(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	// Only the HDD can hold a huge VMDK.
	v, err := mgr.PlaceVMDK(600<<30, trace.WC{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Store() != n.dss[2] {
		t.Fatalf("placed on %s, want hdd0", v.Store().Dev.Name())
	}
	if _, err := mgr.PlaceVMDK(10<<40, trace.WC{}); err == nil {
		t.Fatal("impossible placement accepted")
	}
}

func TestPestoCostBenefitSkips(t *testing.T) {
	// A mild imbalance with a huge VMDK: cost exceeds benefit, so Pesto
	// skips where BASIL migrates.
	run := func(s Scheme) Stats {
		n := newNode(t)
		v, _ := n.dss[2].CreateVMDK(1, 256<<20) // large: costly to move
		cfg := quickCfg()
		cfg.Tau = 0.3
		mgr := NewManager(n.eng, cfg, s, n.dss)
		p := workload.Profile{Name: "w", WriteRatio: 0.2, ReadRand: 0.3, WriteRand: 0.3,
			IOSize: 64 << 10, OIO: 1, Footprint: 8 << 20, ThinkTime: 2 * sim.Millisecond}
		r := workload.NewRunner(n.eng, sim.NewRNG(1), p, v, 0)
		r.Start()
		mgr.Start()
		n.eng.RunFor(300 * sim.Millisecond)
		r.Stop()
		mgr.Stop()
		n.eng.Run()
		return mgr.Stats()
	}
	basil := run(BASIL())
	pesto := run(Pesto())
	if basil.MigrationsStarted == 0 {
		t.Skip("scenario did not trigger BASIL; nothing to compare")
	}
	if pesto.MigrationsStarted >= basil.MigrationsStarted {
		t.Fatalf("Pesto (%d) should migrate less than BASIL (%d)",
			pesto.MigrationsStarted, basil.MigrationsStarted)
	}
	if pesto.MigrationsSkipped == 0 {
		t.Fatal("Pesto recorded no cost/benefit skips")
	}
}

func TestSchemeDefinitions(t *testing.T) {
	cases := []struct {
		name     string
		describe string
		model    bool
		class    trace.Class
	}{
		{"BASIL", "est=measured,gate=none,exec=copy,tag=off", false, trace.ClassNormal},
		{"Pesto", "est=measured,gate=proposal,exec=copy,tag=off", false, trace.ClassNormal},
		{"LightSRM", "est=measured,gate=copy,exec=redirect,tag=off", false, trace.ClassNormal},
		{"BCA", "est=predicted,gate=none,exec=copy,tag=off", true, trace.ClassNormal},
		{"BCA+Lazy", "est=predicted,gate=copy,exec=redirect,tag=off", true, trace.ClassNormal},
		{"BCA+Lazy+Arch", "est=predicted,gate=copy,exec=redirect,tag=on", true, trace.ClassMigrated},
	}
	all := AllSchemes()
	if len(all) != len(cases) {
		t.Fatalf("schemes = %d, want %d", len(all), len(cases))
	}
	for i, c := range cases {
		s := all[i]
		if s.Name != c.name {
			t.Fatalf("scheme %d = %q, want %q", i, s.Name, c.name)
		}
		if got := s.Describe(); got != c.describe {
			t.Errorf("%s.Describe() = %q, want %q", c.name, got, c.describe)
		}
		if s.NeedsModel() != c.model {
			t.Errorf("%s.NeedsModel() = %v, want %v", c.name, s.NeedsModel(), c.model)
		}
		if s.MigratedClass() != c.class {
			t.Errorf("%s.MigratedClass() = %v, want %v", c.name, s.MigratedClass(), c.class)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s.Validate() = %v", c.name, err)
		}
	}
}

func TestZeroSchemeIsBASIL(t *testing.T) {
	if (Scheme{}).Named("BASIL") != BASIL() {
		t.Fatal("zero scheme should be the BASIL policy")
	}
	if BASIL().Named("x").Name != "x" {
		t.Fatal("Named should relabel")
	}
}

func TestNewManagerPanicsOnCopyGateWithoutRedirect(t *testing.T) {
	n := newNode(t)
	defer func() {
		if recover() == nil {
			t.Fatal("NewManager accepted gate=copy without exec=redirect")
		}
	}()
	NewManager(n.eng, quickCfg(), Scheme{Gate: GateCopy}, n.dss)
}

func TestArchTaggingClassifiesMigrationTraffic(t *testing.T) {
	// Under Full(), migration reads at the source carry ClassMigrated and
	// therefore bypass the NVDIMM cache when enabled.
	n := newNode(t)
	// Enable bypassing on a fresh NVDIMM for this test.
	eng := n.eng
	v, _ := n.dss[0].CreateVMDK(1, 4<<20) // on NVDIMM
	cfg := quickCfg()
	mgr := NewManager(eng, cfg, Full(), n.dss)
	// Force a migration directly.
	if err := mgr.startMigration(v, n.dss[1]); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if v.Store() != n.dss[1] {
		t.Fatal("forced migration did not complete")
	}
	// The NVDIMM saw migrated-class reads (counted even without bypass
	// enabled in config, the class still flows to the device).
	if n.nv.Metrics().TotalReads == 0 {
		t.Fatal("no migration reads observed")
	}
}

func TestPingPongDetection(t *testing.T) {
	n := newNode(t)
	v, _ := n.dss[0].CreateVMDK(1, 1<<20)
	mgr := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	mgr.recordMove(v, n.dss[0], n.dss[1])
	if mgr.Stats().PingPongs != 0 {
		t.Fatal("first move is not a ping-pong")
	}
	mgr.recordMove(v, n.dss[1], n.dss[0]) // back to origin
	if mgr.Stats().PingPongs != 1 {
		t.Fatalf("ping-pongs = %d, want 1", mgr.Stats().PingPongs)
	}
}

func TestDatastoreWindowReset(t *testing.T) {
	n := newNode(t)
	v, _ := n.dss[0].CreateVMDK(1, 1<<20)
	v.Submit(&trace.IORequest{Op: trace.OpWrite, Offset: 0, Size: 4096}, nil)
	n.eng.Run()
	if n.dss[0].WindowLoad() != 1 {
		t.Fatalf("window load = %d", n.dss[0].WindowLoad())
	}
	n.dss[0].resetWindow()
	if n.dss[0].WindowLoad() != 0 {
		t.Fatal("window not reset")
	}
}

// TestWindowLoadFollowsPrimary pins whose window a migrated VMDK's
// requests count toward: a VMDK that migrates mid-window moves its whole
// window count to the new primary, and the old store keeps only what its
// remaining residents issued.
func TestWindowLoadFollowsPrimary(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	mover, _ := n.dss[0].CreateVMDK(1, 1<<20)
	stayer, _ := n.dss[0].CreateVMDK(2, 1<<20)
	submit := func(v *VMDK, k int) {
		for i := 0; i < k; i++ {
			v.Submit(&trace.IORequest{Op: trace.OpRead, Offset: int64(i) * BlockSize, Size: 4096}, nil)
		}
		n.eng.Run()
	}
	submit(mover, 3)
	submit(stayer, 2)
	if got := n.dss[0].WindowLoad(); got != 5 {
		t.Fatalf("source window load before migration = %d, want 5", got)
	}
	if err := mgr.startMigration(mover, n.dss[1]); err != nil {
		t.Fatal(err)
	}
	n.eng.Run()
	if mover.Migrating() || mover.Store() != n.dss[1] {
		t.Fatal("migration did not complete")
	}
	if got := n.dss[0].WindowLoad(); got != 2 {
		t.Fatalf("old primary window load = %d, want 2 (stayer only)", got)
	}
	if got := n.dss[1].WindowLoad(); got != 3 {
		t.Fatalf("new primary window load = %d, want 3 (mover's window)", got)
	}
	submit(mover, 1)
	if got := n.dss[1].WindowLoad(); got != 4 {
		t.Fatalf("new primary window load after more I/O = %d, want 4", got)
	}
}

var _ device.Device = (*nvdimm.NVDIMM)(nil)
