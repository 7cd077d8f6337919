package perfmodel

import (
	"repro/internal/device"
	"repro/internal/mlmodel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TrainSpec is the synthetic training grid (§4.5: "We create the I/O
// workloads under above five types of access patterns and one particular
// storage condition (free_space_ratio)"). The cross product of the fields
// spans the WC space.
type TrainSpec struct {
	WriteRatios     []float64
	Randomness      []float64 // applied to both read and write randomness
	IOSizes         []int64
	OIOs            []int
	FreeSpaceRatios []float64
	// WindowPerPoint is the simulated time each grid point runs.
	WindowPerPoint sim.Time
	// Warmup runs each grid point this long before measurement starts, so
	// cold-cache transients do not contaminate the training targets.
	Warmup sim.Time
	// Footprint is the address range the generator touches.
	Footprint int64
	// Seed drives the generators.
	Seed uint64
	// Repeats runs each grid point this many times with different
	// generator seeds (default 1). Repeats let the regression tree tell
	// real effects from single-window measurement noise.
	Repeats int
}

// DefaultTrainSpec returns a grid that is representative (spans the
// spectrum) yet cheap enough for tests and benches.
func DefaultTrainSpec() TrainSpec {
	return TrainSpec{
		WriteRatios:     []float64{0.1, 0.5, 0.9},
		Randomness:      []float64{0.0, 0.5, 1.0},
		IOSizes:         []int64{4 << 10, 64 << 10},
		OIOs:            []int{1, 4, 16},
		FreeSpaceRatios: []float64{1.0},
		WindowPerPoint:  4 * sim.Millisecond,
		Warmup:          2 * sim.Millisecond,
		Footprint:       1 << 30,
		Seed:            12345,
		Repeats:         1,
	}
}

// DeviceFactory builds a fresh quiet device (no competing memory traffic)
// prefilled to the given ratio, returning the engine that drives it.
type DeviceFactory func(fillRatio float64) (*sim.Engine, device.Device)

// Prefiller is implemented by devices that can simulate pre-existing fill.
type Prefiller interface {
	Prefill(ratio float64)
}

// Collect runs the training grid and returns (WC, mean latency µs)
// samples measured on quiet devices — the contention-free ground truth
// the model learns (Eq. 1).
func Collect(factory DeviceFactory, spec TrainSpec) mlmodel.Dataset {
	ds := mlmodel.Dataset{FeatureNames: trace.FeatureNames()}
	rng := sim.NewRNG(spec.Seed)
	for _, fill := range spec.FreeSpaceRatios {
		eng, dev := factory(1 - fill) // fill ratio = 1 - free space
		mon := NewMonitor(dev)
		for _, wr := range spec.WriteRatios {
			for _, rnd := range spec.Randomness {
				for _, ios := range spec.IOSizes {
					for _, oio := range spec.OIOs {
						reps := spec.Repeats
						if reps < 1 {
							reps = 1
						}
						for rep := 0; rep < reps; rep++ {
							p := workload.Profile{
								Name:       "train",
								WriteRatio: wr,
								ReadRand:   rnd,
								WriteRand:  rnd,
								IOSize:     ios,
								OIO:        oio,
								Footprint:  spec.Footprint,
							}
							r := workload.NewRunner(eng, rng.Split(), p, mon, 0)
							r.Start()
							if spec.Warmup > 0 {
								eng.RunFor(spec.Warmup)
							}
							mon.ResetWindow()
							eng.RunFor(spec.WindowPerPoint)
							r.Stop()
							eng.Run() // drain in-flight requests
							wc, mp, n := mon.Window()
							if n == 0 || mp == 0 {
								continue
							}
							ds.Add(wc.Features(), mp)
						}
					}
				}
			}
		}
	}
	return ds
}
