package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mgmt"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DAXResult compares block-interface and DAX access paths on the NVDIMM —
// the paper's concluding outlook ("we expect better results can be
// obtained ... with DAX in which the NVDIMM performance is enhanced with
// the native memory support").
type DAXResult struct {
	Sizes    []int64
	BlockUS  []float64
	DAXUS    []float64
	Speedups []float64
}

// DAXStudy measures cache-resident access latency across request sizes.
func DAXStudy(scale Scale) DAXResult {
	res := DAXResult{Sizes: []int64{256, 512, 1024, 4096, 16384}}
	run := func(dax bool, size int64) float64 {
		cfg := core.ScaledNVDIMMConfig("nv")
		cfg.DAX = dax
		rig := core.NewRig(cfg, nil)
		p := workload.Profile{Name: "w", WriteRatio: 0.3, ReadRand: 1, WriteRand: 1,
			IOSize: size, OIO: 4, Footprint: 1 << 20}
		return measureMean(rig.Eng, rig.NVDIMM, p, scale.SweepWindow, 7)
	}
	for _, size := range res.Sizes {
		b := run(false, size)
		d := run(true, size)
		res.BlockUS = append(res.BlockUS, b)
		res.DAXUS = append(res.DAXUS, d)
		sp := 0.0
		if d > 0 {
			sp = b / d
		}
		res.Speedups = append(res.Speedups, sp)
	}
	return res
}

// String renders the report-text block printed under the
// "===== dax =====" header; the `dax` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r DAXResult) String() string {
	t := &table{header: []string{"size", "block path", "DAX path", "speedup"}}
	for i, s := range r.Sizes {
		t.add(fmt.Sprintf("%dB", s), us(r.BlockUS[i]), us(r.DAXUS[i]), ratio(r.Speedups[i]))
	}
	return "DAX extension: cache-resident access latency by request size\n" + t.String()
}

// PlacementResult reproduces the §3/Fig. 3 initial-misplacement
// motivation: under memory interference, measured-latency placement
// (BASIL-style) sees an inflated NVDIMM and avoids it more often than
// model-based placement (Eq. 4 with PP), which strips the contention.
type PlacementResult struct {
	// Chosen device kinds under each scheme, per trial.
	BASILChoices []string
	BCAChoices   []string
	// NVDIMMRate is the fraction of trials placing on the NVDIMM.
	BASILNVDIMMRate float64
	BCANVDIMMRate   float64
	// MeasuredNVDIMMUS and PredictedNVDIMMUS are the decision inputs at
	// each trial: what a measured-latency scheme sees for the NVDIMM vs
	// what the model predicts its contention-free latency to be.
	MeasuredNVDIMMUS  []float64
	PredictedNVDIMMUS []float64
}

// PlacementStudy settles a loaded system under heavy interference, then
// asks each scheme's manager where a new hot VMDK should go (the decision
// is read without committing, trial after trial across phase positions).
func PlacementStudy(scale Scale, model *perfmodel.Model) (PlacementResult, error) {
	run := func(scheme mgmt.Scheme, rec *PlacementResult) ([]string, float64, error) {
		sys, err := core.NewSystem(core.Options{
			Scheme: scheme,
			// A light system: the NVDIMM carries only modest load, so the
			// interference inflation of its measurement is the deciding
			// factor, as in Fig. 3's initial-misplacement story.
			Apps:             []string{"bayes", "wordcount"},
			MemProfile:       "429.mcf",
			MemScale:         4,
			MemPhasePeriod:   80 * sim.Millisecond,
			Mgmt:             mgmtCfg(),
			Seed:             31,
			Model:            model,
			FootprintDivisor: 1024,
			NoHDDPlacement:   true,
			Scope:            scale.Scope,
		})
		if err != nil {
			return nil, 0, err
		}
		// Disable the management loop so placement decisions are isolated
		// (Start launches it; Stop immediately after parks it).
		sys.Start()
		sys.Manager.Stop()
		var choices []string
		nv := 0
		const trials = 8
		for i := 0; i < trials; i++ {
			// Sample at different phase positions (memory-intensive and
			// compute-intensive windows alternate every 40 ms): each trial
			// measures a fresh window.
			for _, ds := range sys.Manager.Stores() {
				ds.Mon.ResetWindow()
			}
			sys.Cluster.Eng.RunFor(30 * sim.Millisecond)
			if rec != nil {
				for _, ds := range sys.Manager.Stores() {
					if ds.Dev.Kind() == device.KindNVDIMM {
						wc, mp, _ := ds.Mon.Window()
						rec.MeasuredNVDIMMUS = append(rec.MeasuredNVDIMMUS, mp)
						rec.PredictedNVDIMMUS = append(rec.PredictedNVDIMMUS, model.PredictUS(wc))
					}
				}
			}
			v, err := sys.Manager.PlaceVMDK(8<<20, trace.WC{
				WriteRatio: 0.3, OIOs: 8, IOSize: 4096, ReadRand: 0.7, FreeSpaceRatio: 1,
			})
			if err != nil {
				return nil, 0, err
			}
			kind := v.Store().Dev.Kind().String()
			choices = append(choices, kind)
			if v.Store().Dev.Kind() == device.KindNVDIMM {
				nv++
			}
		}
		sys.Stop()
		return choices, float64(nv) / trials, nil
	}
	var res PlacementResult
	var err error
	if res.BASILChoices, res.BASILNVDIMMRate, err = run(mgmt.BASIL(), &res); err != nil {
		return res, err
	}
	if res.BCAChoices, res.BCANVDIMMRate, err = run(mgmt.BCA(), nil); err != nil {
		return res, err
	}
	return res, nil
}

// String renders the report-text block printed under the
// "===== placement =====" header; the `placement` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r PlacementResult) String() string {
	t := &table{header: []string{"scheme", "NVDIMM placement rate", "choices"}}
	t.add("BASIL (measured)", pct(r.BASILNVDIMMRate), fmt.Sprint(r.BASILChoices))
	t.add("BCA (predicted)", pct(r.BCANVDIMMRate), fmt.Sprint(r.BCAChoices))
	t2 := &table{header: []string{"trial", "NVDIMM measured", "NVDIMM predicted (PP)"}}
	for i := range r.MeasuredNVDIMMUS {
		t2.add(fmt.Sprintf("%d", i), us(r.MeasuredNVDIMMUS[i]), us(r.PredictedNVDIMMUS[i]))
	}
	return "Initial placement under interference (§5.1.1 / Fig. 3 motivation)\n" +
		t.String() + "\ndecision inputs per trial:\n" + t2.String()
}
