package workload

import (
	"repro/internal/dram"
	"repro/internal/sim"
)

// MemGen drives a DRAM DIMM with the memory traffic of a SPEC-style
// co-runner. Traffic is issued in aggregated cacheline bursts (one engine
// event per Aggregation cachelines) so minutes-scale simulations stay
// tractable while channel occupancy — the quantity bus contention depends
// on — is preserved.
type MemGen struct {
	eng     *sim.Engine
	rng     *sim.RNG
	dimm    *dram.DIMM
	profile MemProfile

	// Aggregation is cachelines per issued burst (default 16).
	Aggregation int
	// Scale multiplies the profile's access rate (default 1).
	Scale float64

	running bool
	next    *sim.Timer // the one tick timer, re-armed with Reset
	onDone  func()     // g.burstDone, bound once
	addr    uint64
	// outstanding counts the bursts in flight as of the last tick: tick
	// subtracts the finishes that have passed since (dram.PopFinished),
	// and burstDone the one finish armed to resume generation.
	outstanding int
	// waiting marks saturation: one burst finish is armed (or will be, at
	// the next grant) to run burstDone and resume generation.
	waiting bool

	// The inter-burst gap depends only on the phase factor, Scale and
	// Aggregation; gap caches it for the values it was computed from.
	gapFactor, gapScale float64
	gapAgg              int
	gap                 sim.Time // 0: nothing cached; -1: an idle phase
}

// maxOutstanding caps in-flight bursts so an over-subscribed profile
// self-throttles at channel capacity instead of growing the transaction
// queue without bound (~ half the Table 4 DRAM transaction-queue depth in
// burst units).
const maxOutstanding = 64

// NewMemGen builds a generator for the DIMM.
func NewMemGen(eng *sim.Engine, rng *sim.RNG, dimm *dram.DIMM, p MemProfile) *MemGen {
	g := &MemGen{eng: eng, rng: rng, dimm: dimm, profile: p, Aggregation: 16, Scale: 1}
	g.onDone = g.burstDone
	return g
}

// phaseFactor returns the intensity multiplier at time t according to the
// memory/compute phase alternation.
func (g *MemGen) phaseFactor(t sim.Time) float64 {
	p := g.profile
	if p.PhasePeriod <= 0 {
		return 1
	}
	phase := float64(t%p.PhasePeriod) / float64(p.PhasePeriod)
	if phase < p.PhaseDuty {
		return p.HighFactor
	}
	return p.LowFactor
}

// Start begins generating until Stop.
func (g *MemGen) Start() {
	if g.running {
		return
	}
	g.running = true
	g.tick()
}

// Stop ceases generation and cancels the pending tick.
func (g *MemGen) Stop() {
	g.running = false
	if g.next != nil {
		g.next.Stop()
	}
}

// arm schedules the next tick after delay. The first call creates the
// timer; later calls re-arm it, which cancels any tick still pending and,
// like After, takes exactly one fresh sequence number.
func (g *MemGen) arm(delay sim.Time) {
	if g.next == nil {
		g.next = g.eng.After(delay, g.tick)
		return
	}
	g.next.Reset(delay)
}

// burstDone runs at the burst finish armed when generation saturated:
// it retires that burst and resumes generation.
func (g *MemGen) burstDone() {
	g.outstanding--
	g.waiting = false
	g.tick()
}

// tick issues one aggregated burst and arms the next via a timer.
func (g *MemGen) tick() {
	if !g.running {
		return
	}
	g.outstanding -= g.dimm.PopFinished()
	if g.outstanding >= maxOutstanding {
		// Saturated: resume from the next burst completion, the one
		// finish that has to run as an event. Until it runs no other
		// finish passes, so a tick after Stop and Start lands here again.
		if !g.waiting {
			g.waiting = true
			g.dimm.WakeOnFinish(g.onDone)
		}
		return
	}
	now := g.eng.Now()
	gap := g.burstGap(g.phaseFactor(now))
	if gap < 0 {
		// Idle phase: re-check at the next phase boundary.
		g.arm(g.profile.PhasePeriod/8 + sim.Microsecond)
		return
	}

	// The read/write draw decides nothing (DIMM timing ignores a burst's
	// direction); it stays so the addresses drawn after it are unchanged.
	g.rng.Float64()
	// Mostly-streaming addresses with occasional random jumps, giving a
	// realistic row-hit mix.
	if g.rng.Bool(0.2) {
		g.addr = g.rng.Uint64() & ((1 << 33) - 1)
	} else {
		g.addr += 64 * uint64(g.Aggregation)
	}
	g.outstanding++
	g.dimm.AccessBurst(g.addr, g.Aggregation)
	g.arm(gap)
}

// burstGap returns the inter-burst gap at phase factor f that makes
// Aggregation cachelines per burst hit the target rate, or -1 when the
// rate is not positive (an idle phase). The last result is cached: it
// changes only at a phase boundary or when Scale or Aggregation is set.
func (g *MemGen) burstGap(f float64) sim.Time {
	if g.gap != 0 && f == g.gapFactor && g.Scale == g.gapScale && g.Aggregation == g.gapAgg {
		return g.gap
	}
	g.gapFactor, g.gapScale, g.gapAgg = f, g.Scale, g.Aggregation
	rate := g.profile.AccessesPerSecond(g.Scale) * f
	if rate <= 0 {
		g.gap = -1
		return g.gap
	}
	gapNS := float64(g.Aggregation) / rate * 1e9
	g.gap = sim.Time(gapNS)
	if g.gap < 1 {
		g.gap = 1
	}
	return g.gap
}
