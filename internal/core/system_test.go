package core

import (
	"testing"

	"repro/internal/memsched"
	"repro/internal/mgmt"
	"repro/internal/sim"
	"repro/internal/trace"
)

func smallOpts(scheme mgmt.Scheme) Options {
	return Options{
		Nodes:            1,
		Scheme:           scheme,
		Apps:             []string{"bayes", "sort", "pagerank", "wordcount"},
		FootprintDivisor: 512,
		Seed:             7,
	}
}

func TestNewSystemAssembles(t *testing.T) {
	s, err := NewSystem(smallOpts(mgmt.BASIL()))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cluster.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(s.Cluster.Nodes))
	}
	if len(s.Runners) != 4 || len(s.VMDKs) != 4 {
		t.Fatalf("runners/vmdks = %d/%d", len(s.Runners), len(s.VMDKs))
	}
	if s.Model != nil {
		t.Fatal("BASIL should not train a model")
	}
}

func TestUnknownAppAndProfileRejected(t *testing.T) {
	opts := smallOpts(mgmt.BASIL())
	opts.Apps = []string{"nosuchapp"}
	if _, err := NewSystem(opts); err == nil {
		t.Fatal("unknown app accepted")
	}
	opts = smallOpts(mgmt.BASIL())
	opts.MemProfile = "999.bogus"
	if _, err := NewSystem(opts); err == nil {
		t.Fatal("unknown memory profile accepted")
	}
}

func TestSystemRunProducesReport(t *testing.T) {
	s, err := NewSystem(smallOpts(mgmt.BASIL()))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(300 * sim.Millisecond)
	rep := s.Report()
	if rep.Scheme != "BASIL" {
		t.Fatalf("scheme = %q", rep.Scheme)
	}
	if len(rep.DeviceMeanUS) != 3 {
		t.Fatalf("devices = %d", len(rep.DeviceMeanUS))
	}
	if rep.MeanIOPS <= 0 {
		t.Fatal("no throughput recorded")
	}
	for _, app := range []string{"bayes", "sort", "pagerank", "wordcount"} {
		if rep.WorkloadIOPS[app] <= 0 {
			t.Fatalf("workload %s did no I/O", app)
		}
	}
	// Normalized latency: slowest device = 1.
	max := 0.0
	for _, v := range rep.NormalizedLatency {
		if v > max {
			max = v
		}
		if v < 0 || v > 1 {
			t.Fatalf("normalized latency out of range: %v", v)
		}
	}
	if max != 1 {
		t.Fatalf("slowest device should normalize to 1, got %v", max)
	}
	if len(s.Samples()) == 0 {
		t.Fatal("no window samples recorded")
	}
}

func TestMemTrafficRaisesNVDIMMContention(t *testing.T) {
	run := func(mem string) float64 {
		opts := smallOpts(mgmt.BASIL())
		opts.MemProfile = mem
		s, err := NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(200 * sim.Millisecond)
		return s.Report().NVDIMMContentionUS
	}
	quiet := run("")
	loud := run("429.mcf")
	if loud <= quiet {
		t.Fatalf("contention with mcf (%v) should exceed without (%v)", loud, quiet)
	}
}

func TestBCATrainsAndUsesModel(t *testing.T) {
	opts := smallOpts(mgmt.BCA())
	s, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Model == nil {
		t.Fatal("BCA system has no model")
	}
	s.Run(200 * sim.Millisecond)
	// Window samples should carry predictions.
	any := false
	for _, w := range s.Samples() {
		if w.PredictedUS > 0 {
			any = true
		}
		if s.ContentionOf(w) < 0 {
			t.Fatal("negative contention")
		}
	}
	if !any {
		t.Fatal("no predictions recorded")
	}
}

func TestModelReuseAcrossSystems(t *testing.T) {
	m, err := TrainScaledNVDIMMModel(3)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(mgmt.BCALazy())
	opts.Model = m
	s, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Model != m {
		t.Fatal("injected model not used")
	}
}

func TestMultiNodeSystem(t *testing.T) {
	opts := smallOpts(mgmt.BASIL())
	opts.Nodes = 3
	opts.Apps = []string{"bayes", "sort", "pagerank", "wordcount", "kmeans", "nutchindexing"}
	s, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cluster.AllStores()) != 9 {
		t.Fatalf("stores = %d", len(s.Cluster.AllStores()))
	}
	s.Run(200 * sim.Millisecond)
	rep := s.Report()
	if len(rep.DeviceMeanUS) != 9 {
		t.Fatalf("report devices = %d", len(rep.DeviceMeanUS))
	}
}

// TestSchedulerAndBypassOptionsPropagate checks by behaviour that
// NewSystem hands SchedPolicy and BypassMigratedReads to the NVDIMM. The
// scheduler probe queues a persistent write that never completes, a
// barrier, then a migrated write: only Policy One lets the migrated write
// start past the barrier. The bypass probe reads an uncached page as a
// migrated request: with bypassing the page must not enter the buffer
// cache; the same read as a normal request must.
func TestSchedulerAndBypassOptionsPropagate(t *testing.T) {
	m, err := TrainScaledNVDIMMModel(3)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(policy memsched.Policy, bypass bool) (migratedStarted, migratedCached, normalCached bool) {
		opts := smallOpts(mgmt.Full())
		opts.Model = m
		opts.SchedPolicy = policy
		opts.BypassMigratedReads = bypass
		s, err := NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		nv := s.Cluster.Nodes[0].NVDIMM
		if want := ScaledNVDIMMConfig("").CacheBlocks; nv.Cache().Cap() != want {
			t.Fatalf("cache blocks = %d, want the scaled %d", nv.Cache().Cap(), want)
		}
		sched := nv.Scheduler()
		sched.EnqueueWrite(1, trace.ClassPersistent, func(func()) {}, nil)
		sched.Barrier()
		sched.EnqueueWrite(2, trace.ClassMigrated, func(done func()) {
			migratedStarted = true
			done()
		}, nil)

		const page = 4096
		read := func(lpn int64, class trace.Class) bool {
			r := &trace.IORequest{Op: trace.OpRead, Offset: lpn * page, Size: page, Class: class, VMDK: -1}
			nv.Submit(r, func(*trace.IORequest) {})
			if err := s.Cluster.Eng.RunFor(sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if r.Complete == 0 {
				t.Fatalf("%v read of page %d never completed", class, lpn)
			}
			return nv.Cache().Contains(lpn)
		}
		return migratedStarted, read(1000, trace.ClassMigrated), read(2000, trace.ClassNormal)
	}

	started, migCached, normCached := probe(memsched.PolicyOne(), true)
	if !started {
		t.Error("SchedPolicy Policy One: the migrated write waited on the barrier; the NVDIMM got another policy")
	}
	if migCached || !normCached {
		t.Errorf("BypassMigratedReads: migrated read cached %v, normal read cached %v; want false, true", migCached, normCached)
	}
	// The probes must tell the options apart from their defaults.
	started, migCached, _ = probe(memsched.Baseline(), false)
	if started || !migCached {
		t.Errorf("defaults: migrated write started %v, migrated read cached %v; want false, true", started, migCached)
	}
}

func TestDAXAndSkewOptionsPropagate(t *testing.T) {
	opts := smallOpts(mgmt.BASIL())
	opts.DAX = true
	opts.WorkloadSkew = 0.9
	s, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Runners {
		if r.Profile().Skew != 0.9 {
			t.Fatalf("runner skew = %v", r.Profile().Skew)
		}
	}
	s.Run(100 * sim.Millisecond)
	if s.Report().MeanIOPS <= 0 {
		t.Fatal("DAX system did no I/O")
	}
}
