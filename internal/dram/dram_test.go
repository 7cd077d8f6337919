package dram

import (
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

func newDIMM() (*sim.Engine, *DIMM) {
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	return eng, New(eng, ch)
}

// finishLog arms every burst finish on d in turn and records its time.
// An armed finish is not reported by PopFinished.
func finishLog(eng *sim.Engine, d *DIMM) *[]sim.Time {
	var ends []sim.Time
	var wake func()
	wake = func() {
		ends = append(ends, eng.Now())
		d.WakeOnFinish(wake)
	}
	d.WakeOnFinish(wake)
	return &ends
}

func TestAccessCompletes(t *testing.T) {
	eng, d := newDIMM()
	// Start past the t=0 refresh blackout so timing is pure bank latency.
	eng.RunUntil(200)
	d.AccessBurst(0x1000, 1)
	eng.Run()
	if n := d.PopFinished(); n != 1 {
		t.Fatalf("%d bursts finished, want 1", n)
	}
	// Closed bank: tRCD + tCL + burst.
	want := TRCD + TCL + BurstTime
	if lat := eng.Now() - 200; lat != want {
		t.Fatalf("first-access latency = %v, want %v", lat, want)
	}
	if d.Served() != 1 {
		t.Fatalf("served = %d", d.Served())
	}
}

func TestAccessAtZeroIncludesRefresh(t *testing.T) {
	eng, d := newDIMM()
	d.AccessBurst(0x1000, 1)
	eng.Run()
	want := RefreshRowTime + TRCD + TCL + BurstTime
	if lat := eng.Now(); lat != want {
		t.Fatalf("latency during refresh blackout = %v, want %v", lat, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	eng, d := newDIMM()
	var latencies []sim.Time
	access := func(addr uint64) {
		at := eng.Now()
		d.AccessBurst(addr, 1)
		eng.Run()
		latencies = append(latencies, eng.Now()-at)
	}

	base := uint64(0x10000)
	access(base)
	// Same row (same upper bits): row hit.
	access(base + 64)
	// Different row, same bank (flip row bits above bit 13).
	access(base + (1 << 20))

	if n := d.PopFinished(); n != 3 {
		t.Fatalf("completed %d accesses", n)
	}
	hit, conflict := latencies[1], latencies[2]
	if hit >= conflict {
		t.Fatalf("row hit (%v) not faster than row conflict (%v)", hit, conflict)
	}
}

func TestBankParallelism(t *testing.T) {
	// Two requests to different banks should overlap more than two to the
	// same bank row-conflicting.
	run := func(addr2 uint64) sim.Time {
		eng, d := newDIMM()
		d.AccessBurst(0, 1)
		d.AccessBurst(addr2, 1)
		eng.Run()
		if n := d.PopFinished(); n != 2 {
			t.Fatalf("only %d completed", n)
		}
		return eng.Now()
	}
	sameBankDiffRow := run(1 << 20) // same bank (bits 8-10 zero), different row
	diffBank := run(1 << 8)         // bank 1
	if diffBank >= sameBankDiffRow {
		t.Fatalf("different banks (%v) should finish before same-bank conflict (%v)",
			diffBank, sameBankDiffRow)
	}
}

func TestIntensityTracking(t *testing.T) {
	eng, d := newDIMM()
	d.AccessBurst(0, 1)
	d.AccessBurst(64, 1)
	d.AccessBurst(128, 1)
	eng.Run()
	if d.Intensity().Total() != 3 {
		t.Fatalf("intensity = %d accesses, want 3", d.Intensity().Total())
	}
}

func TestMapAddr(t *testing.T) {
	rank, bnk, row := mapAddr(0)
	if rank != 0 || bnk != 0 || row != 0 {
		t.Fatalf("mapAddr(0) = %d,%d,%d", rank, bnk, row)
	}
	_, bnk, _ = mapAddr(1 << 8)
	if bnk != 1 {
		t.Fatalf("bank bit wrong: %d", bnk)
	}
	rank, _, _ = mapAddr(1 << 11)
	if rank != 1 {
		t.Fatalf("rank bit wrong: %d", rank)
	}
	_, _, row = mapAddr(1 << 13)
	if row != 1 {
		t.Fatalf("row bits wrong: %d", row)
	}
}

func TestRefreshDelay(t *testing.T) {
	// At phase 0 the bank is mid-refresh: full blackout remains.
	if got := refreshDelay(0); got != RefreshRowTime {
		t.Fatalf("refreshDelay(0) = %v, want %v", got, RefreshRowTime)
	}
	// Just past the blackout there is no delay.
	if got := refreshDelay(RefreshRowTime); got != 0 {
		t.Fatalf("refreshDelay(end) = %v, want 0", got)
	}
	// Next interval blacks out again.
	if got := refreshDelay(tREFI); got != RefreshRowTime {
		t.Fatalf("refreshDelay(tREFI) = %v, want %v", got, RefreshRowTime)
	}
}

func TestMeanLatencyAccumulates(t *testing.T) {
	eng, d := newDIMM()
	ends := finishLog(eng, d)
	for i := 0; i < 50; i++ {
		d.AccessBurst(uint64(i)<<13, 1)
	}
	eng.Run()
	if len(*ends) != 50 || d.Served() != 50 {
		t.Fatalf("%d finishes, served = %d, want 50", len(*ends), d.Served())
	}
	// All 50 were issued at 0, so each finish time is its latency; the
	// bursts share one channel, so each finishes after the last.
	for k := 1; k < len(*ends); k++ {
		if (*ends)[k] <= (*ends)[k-1] {
			t.Fatalf("finishes %v not increasing", *ends)
		}
	}
	if (*ends)[49] != eng.Now() {
		t.Fatalf("last finish %v, clock %v", (*ends)[49], eng.Now())
	}
}

func TestChannelContentionSlowsDRAM(t *testing.T) {
	// If the channel is held by a long IO transfer, DRAM access stretches.
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	d := New(eng, ch)
	// Hold the channel with a long IO transfer first.
	ch.Acquire(bus.PriIO, 10*sim.Microsecond, func(sim.Time) {})
	ends := finishLog(eng, d)
	d.AccessBurst(0, 1)
	eng.Run()
	// The column is ready at 110 (refresh) + tRCD, long before the hold
	// ends; the data burst is granted at the release, 10 us.
	want := []sim.Time{10*sim.Microsecond + TCL + BurstTime}
	if !slices.Equal(*ends, want) {
		t.Fatalf("DRAM finishes %v, want %v: the burst must wait for the 10us IO hold", *ends, want)
	}
}

// TestBurstPool checks the pooled burst records against hand-computed
// schedules: every finish time, Served and Intensity. All times stay
// clear of the refresh blackouts at multiples of tREFI (7812 ns), so a
// finish is issue + bank preparation + channel wait + tCL + n×5 ns of
// data.
func TestBurstPool(t *testing.T) {
	t.Run("done issues the next burst", func(t *testing.T) {
		// MemGen's saturated path: the callback armed on a finish issues
		// the next burst and arms its finish.
		eng, d := newDIMM()
		eng.RunUntil(200)
		const base = uint64(0x10000) // rank 0, bank 0, row 8
		steps := []struct {
			addr uint64
			n    int
		}{
			{base, 4},         // closed bank: tRCD
			{base + 64, 2},    // same row: hit
			{base + 1<<20, 1}, // same bank, new row: conflict
		}
		var ends []sim.Time
		k := 0
		var done func()
		done = func() {
			ends = append(ends, eng.Now())
			if k++; k < len(steps) {
				d.AccessBurst(steps[k].addr, steps[k].n)
				d.WakeOnFinish(done)
			}
		}
		d.AccessBurst(steps[0].addr, steps[0].n)
		d.WakeOnFinish(done)
		eng.Run()
		// 200 +14 prep → grant 214, finish 214+14+20 = 248.
		// 248 +0 (hit) → grant 248, finish 248+14+10 = 272.
		// 272 +47 (19+14+14) → grant 319, finish 319+14+5 = 338.
		wantEnd := []sim.Time{248, 272, 338}
		if !slices.Equal(ends, wantEnd) {
			t.Fatalf("finishes %v, want %v", ends, wantEnd)
		}
		if n := d.PopFinished(); n != 0 {
			t.Fatalf("%d unarmed finishes, want 0", n)
		}
		if d.Served() != 7 {
			t.Fatalf("served = %d, want 7", d.Served())
		}
		if got := d.Intensity().Total(); got != 7 {
			t.Fatalf("intensity = %d accesses, want 7", got)
		}
	})

	t.Run("queued behind a longer hold", func(t *testing.T) {
		eng, d := newDIMM()
		eng.RunUntil(200)
		ends := finishLog(eng, d)
		// Bank 0: grant 214, finish 214+14+40 = 268.
		d.AccessBurst(0x10000, 8)
		// Bank 1, ready at 214 too but queued behind the 40 ns hold:
		// grant 254, finish 254+14+5 = 273.
		d.AccessBurst(0x10100, 1)
		eng.Run()
		if want := []sim.Time{268, 273}; !slices.Equal(*ends, want) {
			t.Fatalf("finishes %v, want %v", *ends, want)
		}
		if d.Served() != 9 {
			t.Fatalf("served = %d, want 9", d.Served())
		}
		if got := d.Intensity().Total(); got != 9 {
			t.Fatalf("intensity = %d accesses, want 9", got)
		}
	})

	t.Run("mixed Access and AccessBurst", func(t *testing.T) {
		eng, d := newDIMM()
		eng.RunUntil(300)
		ends := finishLog(eng, d)
		// a: bank 2 row 0, closed → ready 314.
		d.AccessBurst(0x200, 1)
		// b: bank 3, closed → ready 314, queued behind a.
		d.AccessBurst(0x300, 4)
		// c: bank 2 row 0 again, a hit on the row a opened → ready 300.
		d.AccessBurst(0x240, 1)
		eng.Run()
		// c: grant 300, finish 319. a: grant 314, finish 333.
		// b: grant 319 (after a's 5 ns hold), finish 319+14+20 = 353.
		if want := []sim.Time{319, 333, 353}; !slices.Equal(*ends, want) {
			t.Fatalf("finishes %v, want %v (c, a, b)", *ends, want)
		}
		if d.Served() != 6 {
			t.Fatalf("served = %d, want 6", d.Served())
		}
		if got := d.Intensity().Total(); got != 6 {
			t.Fatalf("intensity = %d accesses, want 6", got)
		}
	})
}
