package bus

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestChannelMatchesCobham checks the channel against queueing theory.
// Channel is a non-preemptive strict-priority server, PriMem over PriIO,
// FIFO within a class. Under Poisson arrivals with deterministic holds
// s_i, Cobham's formula gives each class's mean wait in queue:
//
//	W0    = Σ λ_i s_i² / 2
//	W_mem = W0 / (1 − ρ_mem)
//	W_io  = W0 / ((1 − ρ_mem)(1 − ρ_mem − ρ_io))
//
// A fixed-seed Poisson driver on Acquire runs each (ρ_mem, ρ_io) cell of
// a grid for cobhamArrivals arrivals, and each class's MeanWaitUS must
// land within cobhamTol of its formula. The grid reaches a total load of
// 0.8. Most releases pass as elided lane keys, so this also ties the lazy
// release to theory.
func TestChannelMatchesCobham(t *testing.T) {
	const (
		sMem = 1000 // ns: DRAM burst hold
		sIO  = 4000 // ns: NVDIMM page hold
	)
	cells := []struct{ rhoMem, rhoIO float64 }{
		{0.2, 0.1}, {0.1, 0.4}, {0.4, 0.2}, {0.3, 0.4}, {0.6, 0.1}, {0.5, 0.3},
	}
	for i, cell := range cells {
		eng := sim.NewEngine()
		c := NewChannel(eng, 0)
		rng := sim.NewRNG(uint64(101 + i))
		lamMem, lamIO := cell.rhoMem/sMem, cell.rhoIO/sIO // arrivals per ns
		n := 0
		var poisson func(pri Priority, lam float64, hold sim.Time)
		poisson = func(pri Priority, lam float64, hold sim.Time) {
			gap := sim.Time(-math.Log(1-rng.Float64()) / lam)
			eng.Schedule(gap, func() {
				c.Acquire(pri, hold, func(sim.Time) {})
				if n++; n < cobhamArrivals {
					poisson(pri, lam, hold)
				}
			})
		}
		poisson(PriMem, lamMem, sMem)
		poisson(PriIO, lamIO, sIO)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		w0 := (lamMem*sMem*sMem + lamIO*sIO*sIO) / 2
		wantMem := w0 / (1 - cell.rhoMem) / 1000 // µs
		wantIO := w0 / ((1 - cell.rhoMem) * (1 - cell.rhoMem - cell.rhoIO)) / 1000
		gotMem, gotIO := c.MeanWaitUS(PriMem), c.MeanWaitUS(PriIO)
		t.Logf("ρ_mem %.1f ρ_io %.1f: mem wait %.4f µs (Cobham %.4f, %+.1f%%), io wait %.4f µs (Cobham %.4f, %+.1f%%)",
			cell.rhoMem, cell.rhoIO, gotMem, wantMem, 100*(gotMem/wantMem-1), gotIO, wantIO, 100*(gotIO/wantIO-1))
		if math.Abs(gotMem/wantMem-1) > cobhamTol || math.Abs(gotIO/wantIO-1) > cobhamTol {
			t.Errorf("ρ_mem %.1f ρ_io %.1f: mean waits mem %.4f io %.4f µs, Cobham %.4f and %.4f (tolerance %.0f%%)",
				cell.rhoMem, cell.rhoIO, gotMem, gotIO, wantMem, wantIO, 100*cobhamTol)
		}
	}
}

const (
	// cobhamArrivals is the arrival count of one grid cell, both classes
	// together.
	cobhamArrivals = 300000
	// cobhamTol is the relative tolerance on each class's mean wait.
	// Over five seeds at 200,000 arrivals the worst cell (total load 0.8,
	// I/O class) spread about ±3% (one sd) around the formula, with a
	// worst case of +8%; at 300,000 arrivals 8% is over three sds.
	cobhamTol = 0.08
)
