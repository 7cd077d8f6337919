// Package dram models a DDR3-1600 DRAM DIMM at command granularity: ranks,
// banks, open-row state, the Table 4 timing parameters, and periodic
// refresh. Its purpose in this reproduction is to occupy the shared memory
// channel realistically so that NVDIMM transfers experience contention —
// the substrate DRAMSim2 provided in the paper's testbed.
package dram

import (
	"repro/internal/bus"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Timing parameters from Table 4 (DDR3-1600), rounded to the engine's
// nanosecond resolution (13.75 → 14, 18.75 → 19).
const (
	// TRCD is the activate-to-read/write delay (Table 4: 13.75 ns).
	TRCD = 14 * sim.Nanosecond
	// TRTP is the read/write-to-precharge delay (Table 4: 18.75 ns).
	TRTP = 19 * sim.Nanosecond
	// TRP is the precharge time (Table 4: 13.75 ns).
	TRP = 14 * sim.Nanosecond
	// TCL is the CAS latency (DDR3-1600 CL11 ≈ 13.75 ns).
	TCL = 14 * sim.Nanosecond
	// BurstTime is the data-burst occupancy of one 64-byte cacheline at
	// 12.8 GB/s (5 ns).
	BurstTime = 5 * sim.Nanosecond
	// RefreshPeriod is the all-rows refresh period (Table 4: 64 ms).
	RefreshPeriod = 64 * sim.Millisecond
	// RefreshRowTime is the per-row refresh blackout (Table 4: 110 ns).
	RefreshRowTime = 110 * sim.Nanosecond
	// RowsPerBank gives tREFI = RefreshPeriod / RowsPerBank.
	RowsPerBank = 8192
)

// tREFI is the interval between row refreshes.
const tREFI = RefreshPeriod / RowsPerBank

// Geometry from Table 4: 8 GB, 4 ranks × 8 banks.
const (
	NumRanks = 4
	NumBanks = 8
)

// bank tracks one DRAM bank's row-buffer state.
type bank struct {
	openRow int64 // -1 when closed
	readyAt sim.Time
}

// DIMM is one DRAM module on a memory channel.
type DIMM struct {
	eng       *sim.Engine
	channel   *bus.Channel
	banks     [NumRanks][NumBanks]bank
	intensity trace.MemIntensity
	served    uint64
	free      sim.FreeList[burst] // recycled burst records

	// finishes holds the finish keys of granted bursts, oldest first; the
	// first burst creates it, so a DIMM nobody drives adds no lane.
	// Grants on one channel are sequential and a finish is grant + TCL +
	// hold, so the keys are monotone, as a lane requires.
	finishes *sim.Lane
	// wake, when set, is armed on the finish of the next burst granted
	// (WakeOnFinish with no granted burst in flight).
	wake func()
}

// burst is one AccessBurst from the call to its grant. Records are pooled
// per DIMM and their two callbacks are bound on a record's first use, so
// a steady stream of bursts allocates nothing.
type burst struct {
	d    *DIMM
	bk   *bank
	hold sim.Time // channel occupancy of the n data bursts
	n    int

	onReady func()               // column ready: contend for the channel
	onGrant func(start sim.Time) // channel granted: account, reserve the finish
}

// ready runs when the bank has the column open; the data burst then
// occupies the shared channel, so it contends for it.
func (b *burst) ready() {
	b.d.channel.Acquire(bus.PriMem, b.hold, b.onGrant)
}

// grant runs when the channel is granted. It recycles the record and
// reserves the burst's finish as a key on the finish lane.
func (b *burst) grant(burstStart sim.Time) {
	d := b.d
	finish := burstStart + TCL + b.hold
	b.bk.readyAt = finish
	d.served += uint64(b.n)
	d.free.Put(b)
	d.finishes.Reserve(finish)
	if wake := d.wake; wake != nil {
		d.wake = nil
		d.finishes.Arm(wake)
	}
}

// New creates a DIMM attached to the given channel.
func New(eng *sim.Engine, ch *bus.Channel) *DIMM {
	d := &DIMM{eng: eng, channel: ch}
	for r := range d.banks {
		for b := range d.banks[r] {
			d.banks[r][b].openRow = -1
		}
	}
	return d
}

// mapAddr decomposes a physical address into rank, bank, row. Bits [6,8)
// select the channel upstream; [8,11) bank, [11,13) rank, remainder row.
func mapAddr(addr uint64) (rank, bnk int, row int64) {
	bnk = int((addr >> 8) & (NumBanks - 1))
	rank = int((addr >> 11) & (NumRanks - 1))
	row = int64(addr >> 13)
	return
}

// refreshDelay returns the extra delay if t collides with the bank's
// periodic refresh window.
func refreshDelay(t sim.Time) sim.Time {
	phase := t % tREFI
	if phase < RefreshRowTime {
		return RefreshRowTime - phase
	}
	return 0
}

// AccessBurst serves a burst of n consecutive cacheline accesses at addr
// as a single scheduling unit: bank preparation is paid once and the
// channel is held for n data bursts. Traffic generators use this to
// aggregate heavy memory streams (one event per n cachelines) while
// preserving channel occupancy — the quantity bus contention depends on.
//
// The burst's finish is a key on the DIMM's finish lane, which costs no
// event unless WakeOnFinish arms it; PopFinished reports it once passed.
func (d *DIMM) AccessBurst(addr uint64, n int) {
	if d.finishes == nil {
		d.finishes = d.eng.NewLane()
	}
	if n < 1 {
		n = 1
	}
	d.intensity.Add(n)
	rank, bi, row := mapAddr(addr)
	bk := &d.banks[rank][bi]

	start := d.eng.Now()
	if bk.readyAt > start {
		start = bk.readyAt
	}
	start += refreshDelay(start)

	// Row-buffer management: open-page policy.
	var prep sim.Time
	switch {
	case bk.openRow == row:
		prep = 0
	case bk.openRow < 0:
		prep = TRCD
	default:
		prep = TRTP + TRP + TRCD
	}
	bk.openRow = row

	b := d.free.Get()
	if b.d == nil {
		b.d = d
		b.onReady = b.ready
		b.onGrant = b.grant
	}
	b.bk = bk
	b.hold = sim.Time(n) * BurstTime
	b.n = n
	d.eng.At(start+prep, b.onReady)
}

// PopFinished returns how many bursts have finished since the last call,
// not counting one whose finish WakeOnFinish armed. The DIMM's finish
// count belongs to a single consumer.
func (d *DIMM) PopFinished() int {
	if d.finishes == nil {
		return 0
	}
	return d.finishes.PopPassed()
}

// WakeOnFinish runs fn at the finish of the oldest burst that is granted
// and not yet finished, or, when there is none, at the finish of the next
// burst granted. That finish then runs as an event and is not reported
// by PopFinished. At most one wake may be pending at a time: a second
// call before the first is armed replaces it.
func (d *DIMM) WakeOnFinish(fn func()) {
	if d.finishes != nil && d.finishes.Len() > 0 {
		d.finishes.Arm(fn)
		return
	}
	d.wake = fn
}

// Served returns the number of cachelines served: a burst's n count when
// the channel is granted, before its finish.
func (d *DIMM) Served() uint64 { return d.served }

// Intensity returns the access counter (the memory-intensity signal of
// Fig. 4).
func (d *DIMM) Intensity() *trace.MemIntensity { return &d.intensity }
