package mgmt

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// constPredictor returns a fixed prediction regardless of WC.
type constPredictor float64

func (c constPredictor) PredictUS(trace.WC) float64 { return float64(c) }

func TestIdleEstimateOrdering(t *testing.T) {
	nv := idleEstimateUS(device.KindNVDIMM)
	sd := idleEstimateUS(device.KindSSD)
	hd := idleEstimateUS(device.KindHDD)
	if !(nv < sd && sd < hd) {
		t.Fatalf("idle estimates must order NVDIMM < SSD < HDD: %v %v %v", nv, sd, hd)
	}
}

func TestEstimateClampsToMeasured(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), BCA(), n.dss)
	// A predictor that wildly over-predicts must be clamped to MP.
	mgr.SetModel(device.KindNVDIMM, constPredictor(1e9))
	wc := trace.WC{OIOs: 4, IOSize: 4096}
	if got := mgr.estimateUS(n.dss[0], wc, 500, 50); got != 500 {
		t.Fatalf("over-prediction not clamped: %v", got)
	}
	// An under-predicting model passes through (contention stripped).
	mgr.SetModel(device.KindNVDIMM, constPredictor(10))
	if got := mgr.estimateUS(n.dss[0], wc, 500, 50); got != 10 {
		t.Fatalf("prediction not used: %v", got)
	}
	// Non-NVDIMM stores always use the measurement.
	if got := mgr.estimateUS(n.dss[1], wc, 500, 50); got != 500 {
		t.Fatalf("SSD should use measured: %v", got)
	}
	// A measured-estimate scheme ignores an installed model.
	basil := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	basil.SetModel(device.KindNVDIMM, constPredictor(10))
	if got := basil.estimateUS(n.dss[0], wc, 500, 50); got != 500 {
		t.Fatalf("measured scheme consulted the model: %v", got)
	}
}

func TestEstimateWithoutModelFallsBack(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), BCA(), n.dss)
	if got := mgr.estimateUS(n.dss[0], trace.WC{}, 123, 10); got != 123 {
		t.Fatalf("no model installed: got %v, want measured", got)
	}
}

func TestDebounceFiltersSingleWindowSpike(t *testing.T) {
	// With DebounceWindows=3, a single imbalanced epoch must not trigger.
	n := newNode(t)
	cfg := quickCfg()
	cfg.DebounceWindows = 3
	mgr := NewManager(n.eng, cfg, BASIL(), n.dss)
	v, _ := n.dss[2].CreateVMDK(1, 8<<20)
	p := workload.Profile{Name: "w", WriteRatio: 0.3, ReadRand: 0.8, WriteRand: 0.8,
		IOSize: 4096, OIO: 4, Footprint: 8 << 20}
	r := workload.NewRunner(n.eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	// Run exactly two management windows: imbalance holds, but the
	// debounce (3) must prevent any migration.
	n.eng.RunFor(2*cfg.Window + cfg.Window/2)
	if mgr.Stats().MigrationsStarted != 0 {
		t.Fatalf("debounce violated: %d migrations after 2 windows",
			mgr.Stats().MigrationsStarted)
	}
	// With the imbalance persisting (the HDD queue keeps growing), the
	// debounce eventually clears and a migration triggers.
	n.eng.RunFor(12 * cfg.Window)
	r.Stop()
	mgr.Stop()
	n.eng.Run()
	if mgr.Stats().MigrationsStarted == 0 {
		t.Fatal("persistent imbalance never triggered despite debounce satisfied")
	}
}

// TestSmoothingDampsSpikes drives observe over two measured windows of a
// fixed-latency store: the first window's estimate stands alone, and the
// second is the α = ½ EWMA of its own estimate and the first.
func TestSmoothingDampsSpikes(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFlaky(eng, "store", 40*sim.Microsecond)
	ds := NewDatastore(dev, 0)
	mgr := NewManager(eng, quickCfg(), BASIL(), []*Datastore{ds})
	window := func(lat sim.Time) StorePerf {
		dev.lat = lat
		for i := int64(0); i < 8; i++ {
			ds.Mon.Submit(&trace.IORequest{Op: trace.OpRead, Offset: i * BlockSize, Size: BlockSize}, nil)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		perfs := mgr.observe()
		ds.resetWindow()
		return perfs[0]
	}
	if p := window(40 * sim.Microsecond); p.MeasuredUS != 40 || p.PerfUS != 40 {
		t.Fatalf("first window: measured %v, PerfUS %v; want 40 and 40", p.MeasuredUS, p.PerfUS)
	}
	p := window(200 * sim.Microsecond)
	if want := 0.5*200 + 0.5*40; p.MeasuredUS != 200 || p.PerfUS != want {
		t.Fatalf("second window: measured %v, PerfUS %v; want 200 and %v", p.MeasuredUS, p.PerfUS, want)
	}
}

func TestCostBenefitZeroWhenDestinationWorse(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), Pesto(), n.dss)
	v, _ := n.dss[0].CreateVMDK(1, 8<<20)
	v.windowRequests = 100
	src := StorePerf{Store: n.dss[0], PerfUS: 100, WC: trace.WC{IOSize: 4096}}
	dst := StorePerf{Store: n.dss[2], PerfUS: 8000, WC: trace.WC{IOSize: 4096}}
	cost, benefit := mgr.costBenefit(v, &src, &dst, v.Size)
	if benefit != 0 {
		t.Fatalf("moving to a slower device should have zero benefit, got %v", benefit)
	}
	if cost <= 0 {
		t.Fatalf("cost should be positive, got %v", cost)
	}
	// The unit cost scales with BlockSize/IOSize: 16 KiB requests copy a
	// block at a quarter of the per-request latency, and requests below
	// BlockSize clamp to it.
	for _, tc := range []struct {
		ioSize float64
		want   float64
	}{{16384, cost / 4}, {512, cost}} {
		src.WC.IOSize, dst.WC.IOSize = tc.ioSize, tc.ioSize
		if got, _ := mgr.costBenefit(v, &src, &dst, v.Size); got != tc.want {
			t.Fatalf("IOSize %v: cost = %v, want %v", tc.ioSize, got, tc.want)
		}
	}
}

func TestCostBenefitPositiveWhenDestinationFaster(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), Pesto(), n.dss)
	v, _ := n.dss[2].CreateVMDK(1, 1<<20)
	v.windowRequests = 200
	src := StorePerf{Store: n.dss[2], PerfUS: 9000, WC: trace.WC{IOSize: 4096}}
	dst := StorePerf{Store: n.dss[0], PerfUS: 100, WC: trace.WC{IOSize: 4096}}
	cost, benefit := mgr.costBenefit(v, &src, &dst, v.Size)
	if benefit <= cost {
		t.Fatalf("hot small VMDK to a much faster device must pass the gate: cost=%v benefit=%v",
			cost, benefit)
	}
}

func TestHysteresisBlocksRecentMover(t *testing.T) {
	n := newNode(t)
	cfg := quickCfg()
	cfg.MinResidenceWindows = 100 // effectively forever within the test
	mgr := NewManager(n.eng, cfg, BASIL(), n.dss)
	v, _ := n.dss[2].CreateVMDK(1, 8<<20)
	v.lastMoveEpoch = 1
	mgr.stats.Epochs = 2
	perfs := []StorePerf{
		{Store: n.dss[0], PerfUS: 100, Norm: 1, Requests: 10},
		{Store: n.dss[2], PerfUS: 9000, Norm: 10, Requests: 10},
	}
	mgr.cfg.DebounceWindows = 1
	mgr.balance(perfs)
	if mgr.Stats().MigrationsStarted != 0 {
		t.Fatal("hysteresis ignored: recent mover re-migrated")
	}
}

// TestBenefitHorizonScalesBenefit pins Eq. 7's integration: the benefit
// is the per-request gain × the window's requests × the horizon.
func TestBenefitHorizonScalesBenefit(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), Pesto(), n.dss)
	v, _ := n.dss[2].CreateVMDK(1, 1<<20)
	v.windowRequests = 50
	src := StorePerf{Store: n.dss[2], PerfUS: 9000, WC: trace.WC{IOSize: 4096}}
	dst := StorePerf{Store: n.dss[0], PerfUS: 100, WC: trace.WC{IOSize: 4096}}
	_, benefit := mgr.costBenefit(v, &src, &dst, v.Size)
	// v is the source's whole window load, so the destination's latency
	// doubles once it moves: gain = 9000 − 2×100.
	if want := 8800.0 * 50 * benefitHorizonWindows; benefit != want {
		t.Fatalf("benefit = %v, want gain × requests × horizon = %v", benefit, want)
	}
}
