package mgmt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replayWorld is one self-contained simulation for the replay tests:
// flaky-backed stores with distinct latencies, a randomized VMDK/workload
// population, and an optional deterministic fault window on one store to
// exercise the quarantine → evacuation → probation → readmission
// lifecycle.
type replayWorld struct {
	eng     *sim.Engine
	mgr     *Manager
	stores  []*Datastore
	runners []*workload.Runner
	epochs  []string // one digest per epoch, from OnEpoch
}

// newReplayWorld builds a world from a seed; two worlds built from the
// same arguments are independent copies of one simulation.
func newReplayWorld(t *testing.T, seed int64, faulty bool) *replayWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()

	// 6 stores with spread latencies: fast ones become destinations,
	// slow loaded ones become sources.
	lats := []sim.Time{20, 40, 80, 200, 500, 1200}
	w := &replayWorld{eng: eng}
	var devs []*flaky
	for i, lat := range lats {
		f := newFlaky(eng, fmt.Sprintf("ds%d", i), lat*sim.Microsecond)
		devs = append(devs, f)
		w.stores = append(w.stores, NewDatastore(f, 0))
	}
	if faulty {
		// Store 1 fails every request between 10ms and 25ms of sim time:
		// long enough to trip quarantine, finite so probation readmits it.
		devs[1].fail = func(r *trace.IORequest) bool {
			now := eng.Now()
			return now >= 10*sim.Millisecond && now < 25*sim.Millisecond
		}
	}

	cfg := DefaultConfig()
	cfg.Window = 2 * sim.Millisecond
	cfg.MinWindowRequests = 2
	cfg.MaxConcurrentMigrations = 2
	cfg.DebounceWindows = 1 + rng.Intn(2)
	cfg.MinResidenceWindows = uint64(1 + rng.Intn(4))
	cfg.ProbationWindows = 3
	cfg.QuarantineMinErrors = 3
	schemes := []Scheme{BASIL(), Pesto(), LightSRM()}
	scheme := schemes[rng.Intn(len(schemes))]
	w.mgr = NewManager(eng, cfg, scheme, w.stores)

	// 12 VMDKs spread over the stores; roughly half get a workload and
	// the rest stay idle.
	id := 0
	for i := 0; i < 12; i++ {
		id++
		ds := w.stores[rng.Intn(len(w.stores))]
		v, err := ds.CreateVMDK(id, int64(1+rng.Intn(4))<<20)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			continue
		}
		p := workload.Profile{
			Name:       fmt.Sprintf("w%d", id),
			WriteRatio: 0.3 + 0.4*rng.Float64(),
			ReadRand:   rng.Float64(),
			WriteRand:  rng.Float64(),
			IOSize:     4096,
			OIO:        1 + rng.Intn(6),
			Footprint:  v.Size,
		}
		w.runners = append(w.runners, workload.NewRunner(eng, sim.NewRNG(uint64(seed)+uint64(id)), p, v, 0))
	}

	// Digest every epoch's full performance vector, bit-exactly.
	w.mgr.OnEpoch = func(perfs []StorePerf) {
		var b strings.Builder
		for i := range perfs {
			p := &perfs[i]
			fmt.Fprintf(&b, "%d:%x/%x/%x/%d q=%v wc=%x,%x,%x,%x,%x,%x;",
				i, math.Float64bits(p.PerfUS), math.Float64bits(p.Norm),
				math.Float64bits(p.MeasuredUS), p.Requests, p.Store.Quarantined(),
				math.Float64bits(p.WC.WriteRatio), math.Float64bits(p.WC.OIOs),
				math.Float64bits(p.WC.IOSize), math.Float64bits(p.WC.WriteRand),
				math.Float64bits(p.WC.ReadRand), math.Float64bits(p.WC.FreeSpaceRatio))
		}
		w.epochs = append(w.epochs, b.String())
	}
	return w
}

// run drives the world for 40 management windows and returns its final
// observable summary: stats, decision log, and VMDK placement.
func (w *replayWorld) run() string {
	for _, r := range w.runners {
		r.Start()
	}
	w.mgr.Start()
	w.eng.RunFor(40 * w.mgr.cfg.Window)
	for _, r := range w.runners {
		r.Stop()
	}
	w.mgr.Stop()
	w.eng.Run()

	var b strings.Builder
	fmt.Fprintf(&b, "stats=%+v\n", w.mgr.Stats())
	for _, d := range w.mgr.Log().Entries() {
		fmt.Fprintf(&b, "dec %d %s v%d %s->%s %s\n", d.At, d.Kind, d.VMDK, d.Src, d.Dst, d.Detail)
	}
	for _, ds := range w.stores {
		for _, v := range ds.VMDKs() {
			fmt.Fprintf(&b, "vmdk %d on %s migrating=%v\n", v.ID, v.Store().Dev.Name(), v.Migrating())
		}
	}
	return b.String()
}

// TestSweepReplayIsDeterministic pins the DESIGN.md §9 contract on the
// management sweep: across randomized fleets, workloads, schemes, and
// config knobs — with and without an injected failure window — two
// independent runs of the same world make bit-identical observations
// and decisions, epoch for epoch.
func TestSweepReplayIsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, faulty := range []bool{false, true} {
			name := fmt.Sprintf("seed%d_faulty%v", seed, faulty)
			t.Run(name, func(t *testing.T) {
				a := newReplayWorld(t, seed, faulty)
				b := newReplayWorld(t, seed, faulty)
				aSum := a.run()
				bSum := b.run()
				if len(a.epochs) != len(b.epochs) {
					t.Fatalf("epoch counts differ: %d vs %d", len(a.epochs), len(b.epochs))
				}
				for i := range a.epochs {
					if a.epochs[i] != b.epochs[i] {
						t.Fatalf("epoch %d perf vectors diverge:\nrun 1: %s\nrun 2: %s",
							i, a.epochs[i], b.epochs[i])
					}
				}
				if aSum != bSum {
					t.Fatalf("final summaries diverge:\nrun 1:\n%s\nrun 2:\n%s", aSum, bSum)
				}
			})
		}
	}
}
