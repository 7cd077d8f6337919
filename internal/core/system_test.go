package core

import (
	"testing"

	"repro/internal/mgmt"
	"repro/internal/sim"
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

func TestSchedulerAndBypassOptionsPropagate(t *testing.T) {
	opts := smallOpts(mgmt.Full())
	opts.BypassMigratedReads = true
	m, err := TrainScaledNVDIMMModel(3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Model = m
	s, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	nv := s.Cluster.Nodes[0].NVDIMM
	if want := ScaledNVDIMMConfig("").CacheBlocks; nv.Cache().Cap() != want {
		t.Fatalf("cache blocks = %d, want the scaled %d", nv.Cache().Cap(), want)
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
