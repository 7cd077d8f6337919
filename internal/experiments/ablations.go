package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/memsched"
	"repro/internal/mgmt"
	"repro/internal/mlmodel"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ModelAblationResult compares the paper's regression tree against plain
// multiple linear regression and the Pesto-style aggregation (OIO-only)
// model on held-out quiet NVDIMM measurements (§4.4's model-choice
// justification).
type ModelAblationResult struct {
	TreeMAE        float64 // mean absolute error, µs
	LinearMAE      float64
	AggregationMAE float64
	HeldOut        int
}

// ModelAblation trains all three predictors on the same grid and
// evaluates on held-out points.
func ModelAblation(scale Scale, seed uint64) (ModelAblationResult, error) {
	spec := perfmodel.DefaultTrainSpec()
	spec.Seed = seed
	spec.Repeats = 2
	spec.OIOs = []int{1, 4, 16, 48}
	spec.WindowPerPoint = scale.SweepWindow
	spec.Warmup = scale.SweepWindow / 2
	spec.Footprint = 64 << 20
	ds := perfmodel.Collect(core.QuietNVDIMM, spec)

	var train, test mlmodel.Dataset
	train.FeatureNames = ds.FeatureNames
	for i, s := range ds.Samples {
		if i%5 == 4 {
			test.Samples = append(test.Samples, s)
		} else {
			train.Samples = append(train.Samples, s)
		}
	}
	var res ModelAblationResult
	res.HeldOut = len(test.Samples)
	if res.HeldOut == 0 {
		return res, fmt.Errorf("ablation: no held-out samples")
	}

	tree, err := perfmodel.TrainModel(train, mlmodel.DefaultTreeConfig())
	if err != nil {
		return res, err
	}
	lin, err := perfmodel.TrainLinearModel(train)
	if err != nil {
		return res, err
	}
	agg, err := perfmodel.TrainAggregationModel(train)
	if err != nil {
		return res, err
	}
	for _, s := range test.Samples {
		wc := wcOf(s.Features)
		res.TreeMAE += absf(tree.PredictUS(wc) - s.Target)
		res.LinearMAE += absf(lin.PredictUS(wc) - s.Target)
		res.AggregationMAE += absf(agg.PredictUS(wc) - s.Target)
	}
	n := float64(res.HeldOut)
	res.TreeMAE /= n
	res.LinearMAE /= n
	res.AggregationMAE /= n
	return res, nil
}

// String renders the report-text block printed under the
// "===== ablations =====" header; the `ablations` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r ModelAblationResult) String() string {
	t := &table{header: []string{"model", "held-out MAE"}}
	t.add("regression tree (paper)", us(r.TreeMAE))
	t.add("linear regression", us(r.LinearMAE))
	t.add("aggregation (OIO only)", us(r.AggregationMAE))
	return fmt.Sprintf("Model ablation (%d held-out samples)\n%s", r.HeldOut, t.String())
}

// LambdaAblationResult shows LRFU λ sensitivity under a migration read
// storm (the design choice behind the buffer-cache configuration).
type LambdaAblationResult struct {
	Lambdas   []float64
	HitRatios []float64 // application window hit ratio per λ; λ = 1 is LRU
}

// LambdaAblation sweeps λ with the Fig. 15 pollution scenario.
func LambdaAblation(scale Scale) LambdaAblationResult {
	// The λ sweep drives the cache policy directly with the Fig. 15
	// access pattern — the device pipeline around it is identical across
	// policies and only adds simulation time.
	run := func(lambda float64) float64 {
		c := cache.NewLRFU(256, lambda)
		rng := sim.NewRNG(3)
		// Hot working set of 300 blocks accessed with locality.
		touch := func(b int64) {
			if !c.Lookup(b) {
				c.Insert(b, false)
			}
		}
		for i := 0; i < 4000; i++ {
			touch(int64(rng.Intn(300)))
		}
		// Migration storm interleaved with continuing hot traffic.
		c.Stats().ResetWindow()
		scanBlock := int64(10_000)
		for i := 0; i < 8000; i++ {
			if i%4 == 0 {
				touch(int64(rng.Intn(300)))
			} else {
				c.Insert(scanBlock, false)
				scanBlock++
			}
		}
		// Post-storm hot-traffic hit ratio.
		c.Stats().ResetWindow()
		for i := 0; i < 2000; i++ {
			touch(int64(rng.Intn(300)))
		}
		return c.Stats().WindowHitRatio()
	}
	res := LambdaAblationResult{Lambdas: []float64{0.0001, 0.001, 0.01, 0.1, 1.0}}
	for _, l := range res.Lambdas {
		res.HitRatios = append(res.HitRatios, run(l))
	}
	return res
}

// String renders the report-text block printed under the
// "===== ablations =====" header; the `ablations` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r LambdaAblationResult) String() string {
	t := &table{header: []string{"policy", "post-storm hit ratio"}}
	for i, l := range r.Lambdas {
		t.add(fmt.Sprintf("LRFU λ=%g", l), pct(r.HitRatios[i]))
	}
	return "LRFU λ ablation under migration pollution\n" + t.String()
}

// NPBAblationResult isolates the non-persistent barrier (Fig. 10): under
// Policy Two a sustained persistent stream can starve migrated writes;
// the NPB bounds their delay.
type NPBAblationResult struct {
	WithoutNPBWaitUS float64 // mean migrated-write queueing delay
	WithNPBWaitUS    float64
	NPBInsertions    uint64
}

// NPBAblation runs the starvation scenario with and without the NPB.
func NPBAblation() NPBAblationResult {
	run := func(pol memsched.Policy) (float64, uint64) {
		eng := sim.NewEngine()
		s := memsched.New(eng, pol, 1)
		op := func(done func()) { eng.Schedule(200*sim.Microsecond, done) }
		// Sustained persistent stream: enqueue a new persistent write as
		// each one finishes, for 100 rounds.
		rounds := 0
		var feed func()
		feed = func() {
			rounds++
			if rounds > 100 {
				return
			}
			s.EnqueueWrite(int64(rounds), trace.ClassPersistent, op, feed)
		}
		feed()
		// A handful of migrated writes arrive early and must not starve.
		for i := 0; i < 5; i++ {
			s.EnqueueWrite(int64(1000+i), trace.ClassMigrated, op, nil)
		}
		eng.Run()
		st := s.Stats()
		return st.MigratedWaitUS, st.NPBInsertions
	}
	var res NPBAblationResult
	res.WithoutNPBWaitUS, _ = run(memsched.Policy{MigratedIgnoreBarriers: true, PrioritizePersistent: true})
	res.WithNPBWaitUS, res.NPBInsertions = run(memsched.Combined(2 * sim.Millisecond))
	return res
}

// String renders the report-text block printed under the
// "===== ablations =====" header; the `ablations` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r NPBAblationResult) String() string {
	t := &table{header: []string{"configuration", "migrated mean wait"}}
	t.add("Policy Two without NPB", us(r.WithoutNPBWaitUS))
	t.add("Policy Two + NPB", us(r.WithNPBWaitUS))
	return fmt.Sprintf("Non-persistent barrier ablation (%d NPB insertions)\n%s",
		r.NPBInsertions, t.String())
}

// MirroringAblationResult isolates I/O mirroring inside lazy migration:
// with mirroring, freshly written blocks never need copying.
type MirroringAblationResult struct {
	WithMirroring    mgmt.Stats
	WithoutMirroring mgmt.Stats
}

// MirroringAblation runs a write-heavy scenario under BCA+CostBenefit
// with and without mirroring.
func MirroringAblation(scale Scale, model *perfmodel.Model) (MirroringAblationResult, error) {
	run := func(mirror bool) (mgmt.Stats, error) {
		sch := mgmt.BCALazy().Named("ablate")
		if !mirror {
			sch = mgmt.BCA().Named("ablate")
		}
		sys, err := core.NewSystem(core.Options{
			Scheme:           sch,
			Apps:             []string{"dfsioe_w", "nutchindexing", "dfsioe_r", "pagerank"},
			Model:            model,
			FootprintDivisor: 1024,
			Seed:             11,
			Mgmt:             mgmtCfg(),
			Scope:            scale.Scope,
		})
		if err != nil {
			return mgmt.Stats{}, err
		}
		sys.Run(scale.RunTime)
		return sys.Manager.Stats(), nil
	}
	var res MirroringAblationResult
	var err error
	if res.WithMirroring, err = run(true); err != nil {
		return res, err
	}
	if res.WithoutMirroring, err = run(false); err != nil {
		return res, err
	}
	return res, nil
}

// String renders the report-text block printed under the
// "===== ablations =====" header; the `ablations` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r MirroringAblationResult) String() string {
	t := &table{header: []string{"configuration", "copied", "mirrored", "migrations"}}
	t.add("eager full copy",
		fmt.Sprintf("%dMB", r.WithoutMirroring.BytesCopied>>20),
		fmt.Sprintf("%dMB", r.WithoutMirroring.BytesMirrored>>20),
		fmt.Sprintf("%d", r.WithoutMirroring.MigrationsStarted))
	t.add("mirroring + cost/benefit",
		fmt.Sprintf("%dMB", r.WithMirroring.BytesCopied>>20),
		fmt.Sprintf("%dMB", r.WithMirroring.BytesMirrored>>20),
		fmt.Sprintf("%d", r.WithMirroring.MigrationsStarted))
	return "I/O mirroring ablation (lazy migration)\n" + t.String()
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
