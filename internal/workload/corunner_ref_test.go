package workload

import (
	"repro/internal/bus"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The co-runner path as it was before its releases and burst finishes
// became lane keys, kept as the eager reference for FuzzCoRunnerVsEager:
// refChannel schedules every hold's release, refDIMM every burst's
// finish, and refMemGen counts in-flight bursts down in each finish's
// callback. Timing, arbitration and address draws are the model's own,
// copied so the two stacks can only differ in their scheduling.

// refGrant is one pending channel acquisition.
type refGrant struct {
	hold    sim.Time
	queued  sim.Time
	granted func(start sim.Time)
}

// refChannel is bus.Channel with an always-scheduled release.
type refChannel struct {
	eng      *sim.Engine
	busy     bool
	queues   [2][]refGrant
	waitUS   [2]stats.RunningMean
	busyTime sim.Time
	grants   [2]uint64
}

func (c *refChannel) Acquire(pri bus.Priority, hold sim.Time, granted func(start sim.Time)) {
	if hold < 0 {
		hold = 0
	}
	c.queues[pri] = append(c.queues[pri], refGrant{hold: hold, queued: c.eng.Now(), granted: granted})
	if !c.busy {
		c.dispatch()
	}
}

func (c *refChannel) dispatch() {
	p := 0
	for p < len(c.queues) && len(c.queues[p]) == 0 {
		p++
	}
	if p == len(c.queues) {
		return
	}
	g := c.queues[p][0]
	c.queues[p] = c.queues[p][1:]
	now := c.eng.Now()
	c.waitUS[p].Add((now - g.queued).Micros())
	c.grants[p]++
	c.busy = true
	c.busyTime += g.hold
	g.granted(now)
	c.eng.Schedule(g.hold, func() {
		c.busy = false
		c.dispatch()
	})
}

// refBank is one DRAM bank's row-buffer state.
type refBank struct {
	openRow int64
	readyAt sim.Time
}

// refDIMM is dram.DIMM with an always-scheduled burst finish.
type refDIMM struct {
	eng       *sim.Engine
	channel   *refChannel
	banks     [dram.NumRanks][dram.NumBanks]refBank
	intensity uint64
	served    uint64
}

func newRefDIMM(eng *sim.Engine, ch *refChannel) *refDIMM {
	d := &refDIMM{eng: eng, channel: ch}
	for r := range d.banks {
		for b := range d.banks[r] {
			d.banks[r][b].openRow = -1
		}
	}
	return d
}

func (d *refDIMM) AccessBurst(addr uint64, n int, done func()) {
	if n < 1 {
		n = 1
	}
	d.intensity += uint64(n)
	bi := int((addr >> 8) & (dram.NumBanks - 1))
	rank := int((addr >> 11) & (dram.NumRanks - 1))
	row := int64(addr >> 13)
	bk := &d.banks[rank][bi]

	start := d.eng.Now()
	if bk.readyAt > start {
		start = bk.readyAt
	}
	const tREFI = dram.RefreshPeriod / dram.RowsPerBank
	if phase := start % tREFI; phase < dram.RefreshRowTime {
		start += dram.RefreshRowTime - phase
	}
	var prep sim.Time
	switch {
	case bk.openRow == row:
	case bk.openRow < 0:
		prep = dram.TRCD
	default:
		prep = dram.TRTP + dram.TRP + dram.TRCD
	}
	bk.openRow = row

	hold := sim.Time(n) * dram.BurstTime
	d.eng.At(start+prep, func() {
		d.channel.Acquire(bus.PriMem, hold, func(burstStart sim.Time) {
			finish := burstStart + dram.TCL + hold
			bk.readyAt = finish
			d.served += uint64(n)
			d.eng.At(finish, done)
		})
	})
}

// refMemGen is MemGen with a callback on every burst finish and the gap
// computed afresh on every tick.
type refMemGen struct {
	eng         *sim.Engine
	rng         *sim.RNG
	dimm        *refDIMM
	profile     MemProfile
	Aggregation int
	Scale       float64

	running     bool
	next        *sim.Timer
	addr        uint64
	outstanding int
	waiting     bool
}

func (g *refMemGen) phaseFactor(t sim.Time) float64 {
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

func (g *refMemGen) Start() {
	if g.running {
		return
	}
	g.running = true
	g.tick()
}

func (g *refMemGen) Stop() {
	g.running = false
	if g.next != nil {
		g.next.Stop()
	}
}

func (g *refMemGen) arm(delay sim.Time) {
	if g.next == nil {
		g.next = g.eng.After(delay, g.tick)
		return
	}
	g.next.Reset(delay)
}

func (g *refMemGen) burstDone() {
	g.outstanding--
	if g.waiting {
		g.waiting = false
		g.tick()
	}
}

func (g *refMemGen) tick() {
	if !g.running {
		return
	}
	if g.outstanding >= maxOutstanding {
		g.waiting = true
		return
	}
	now := g.eng.Now()
	rate := g.profile.AccessesPerSecond(g.Scale) * g.phaseFactor(now)
	if rate <= 0 {
		g.arm(g.profile.PhasePeriod/8 + sim.Microsecond)
		return
	}
	gap := sim.Time(float64(g.Aggregation) / rate * 1e9)
	if gap < 1 {
		gap = 1
	}
	g.rng.Float64()
	if g.rng.Bool(0.2) {
		g.addr = g.rng.Uint64() & ((1 << 33) - 1)
	} else {
		g.addr += 64 * uint64(g.Aggregation)
	}
	g.outstanding++
	g.dimm.AccessBurst(g.addr, g.Aggregation, g.burstDone)
	g.arm(gap)
}
