//go:build !race

// The race detector instruments allocations of its own, so the zero-alloc
// guard only means something in an unraced build.

package workload

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/dram"
	"repro/internal/sim"
)

// TestCoRunnerSteadyStateZeroAllocs pins the co-runner path MemGen.tick →
// dram.DIMM.AccessBurst → bus.Channel.Acquire/dispatch → engine as
// allocation-free once warm: the wheel's timer pool, the channel's grant
// rings, the release and finish lanes and the DIMM's burst free list
// have all grown to their peak, and
// every callback on the path is bound once. The generator is over-
// subscribed (mcf at 4×), so it also exercises the saturated path where a
// burst completion resumes generation.
func TestCoRunnerSteadyStateZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	d := dram.New(eng, ch)
	mcf, _ := SPECProfile("429.mcf")
	g := NewMemGen(eng, sim.NewRNG(5), d, mcf)
	g.Scale = 4
	g.Start()
	// Two full memory/compute phase cycles reach the peak queue depths.
	eng.RunFor(2 * mcf.PhasePeriod)

	const steps = 50000
	step := func() {
		for i := 0; i < steps; i++ {
			if !eng.Step() {
				t.Fatal("event queue drained while the generator runs")
			}
		}
	}
	// One run: AllocsPerRun truncates the per-run average, so a single
	// run of many steps is the only way a lone allocation still shows.
	allocs := testing.AllocsPerRun(1, step)
	if allocs != 0 {
		t.Fatalf("co-runner steady state allocated %v times over %d engine steps (%.4f per step), want 0",
			allocs, steps, allocs/steps)
	}
	t.Logf("0 allocations over %d engine steps", steps)
	g.Stop()
}
