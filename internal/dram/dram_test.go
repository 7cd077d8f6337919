package dram

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newDIMM() (*sim.Engine, *DIMM) {
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	return eng, New(eng, ch)
}

func TestAccessCompletes(t *testing.T) {
	eng, d := newDIMM()
	// Start past the t=0 refresh blackout so timing is pure bank latency.
	eng.RunUntil(200)
	var lat sim.Time = -1
	d.AccessBurst(trace.MemRequest{Addr: 0x1000, At: 200}, 1, func(l sim.Time) { lat = l })
	eng.Run()
	if lat < 0 {
		t.Fatal("access never completed")
	}
	// Closed bank: tRCD + tCL + burst.
	want := TRCD + TCL + BurstTime
	if lat != want {
		t.Fatalf("first-access latency = %v, want %v", lat, want)
	}
	if d.Served() != 1 {
		t.Fatalf("served = %d", d.Served())
	}
}

func TestAccessAtZeroIncludesRefresh(t *testing.T) {
	eng, d := newDIMM()
	var lat sim.Time = -1
	d.AccessBurst(trace.MemRequest{Addr: 0x1000, At: 0}, 1, func(l sim.Time) { lat = l })
	eng.Run()
	want := RefreshRowTime + TRCD + TCL + BurstTime
	if lat != want {
		t.Fatalf("latency during refresh blackout = %v, want %v", lat, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	eng, d := newDIMM()
	var latencies []sim.Time
	record := func(l sim.Time) { latencies = append(latencies, l) }

	base := uint64(0x10000)
	d.AccessBurst(trace.MemRequest{Addr: base, At: 0}, 1, record)
	eng.Run()

	// Same row (same upper bits): row hit.
	at := eng.Now()
	d.AccessBurst(trace.MemRequest{Addr: base + 64, At: at}, 1, record)
	eng.Run()

	// Different row, same bank (flip row bits above bit 13).
	at = eng.Now()
	d.AccessBurst(trace.MemRequest{Addr: base + (1 << 20), At: at}, 1, record)
	eng.Run()

	if len(latencies) != 3 {
		t.Fatalf("completed %d accesses", len(latencies))
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
		doneCount := 0
		d.AccessBurst(trace.MemRequest{Addr: 0, At: 0}, 1, func(sim.Time) { doneCount++ })
		d.AccessBurst(trace.MemRequest{Addr: addr2, At: 0}, 1, func(sim.Time) { doneCount++ })
		eng.Run()
		if doneCount != 2 {
			t.Fatalf("only %d completed", doneCount)
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
	d.AccessBurst(trace.MemRequest{Addr: 0}, 1, nil)
	d.AccessBurst(trace.MemRequest{Addr: 64}, 1, nil)
	d.AccessBurst(trace.MemRequest{Addr: 128}, 1, nil)
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
	var sum sim.Time
	n := 0
	for i := 0; i < 50; i++ {
		d.AccessBurst(trace.MemRequest{Addr: uint64(i) << 13, At: eng.Now()}, 1, func(l sim.Time) {
			sum += l
			n++
		})
	}
	eng.Run()
	if n != 50 || d.Served() != 50 {
		t.Fatalf("%d callbacks, served = %d, want 50", n, d.Served())
	}
	if sum <= 0 {
		t.Fatal("mean latency not positive")
	}
}

func TestChannelContentionSlowsDRAM(t *testing.T) {
	// If the channel is held by a long IO transfer, DRAM access stretches.
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	d := New(eng, ch)
	// Hold the channel with a long IO transfer first.
	ch.Acquire(bus.PriIO, 10*sim.Microsecond, func(sim.Time) {})
	var lat sim.Time
	d.AccessBurst(trace.MemRequest{Addr: 0, At: 0}, 1, func(l sim.Time) { lat = l })
	eng.Run()
	if lat < 10*sim.Microsecond {
		t.Fatalf("DRAM access latency %v should include waiting for the 10us IO hold", lat)
	}
}

// freeBursts counts the DIMM's recycled burst records.
func freeBursts(d *DIMM) int {
	n := 0
	for b := d.free; b != nil; b = b.next {
		n++
	}
	return n
}

// TestBurstPool checks the pooled burst records against hand-computed
// schedules: every latency, Served and Intensity. All times stay clear
// of the refresh blackouts at multiples of tREFI (7812 ns), so latency is
// bank preparation + channel wait + tCL + n×5 ns of data.
func TestBurstPool(t *testing.T) {
	t.Run("done issues the next burst", func(t *testing.T) {
		// MemGen's saturated path: the completion callback issues the
		// next burst, which must not clobber the record being finished.
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
		var lats, ends []sim.Time
		var issue func(k int)
		issue = func(k int) {
			s := steps[k]
			d.AccessBurst(trace.MemRequest{Addr: s.addr, At: eng.Now()}, s.n, func(l sim.Time) {
				lats = append(lats, l)
				ends = append(ends, eng.Now())
				if k+1 < len(steps) {
					issue(k + 1)
				}
			})
		}
		issue(0)
		eng.Run()
		// 200 +14 prep → grant 214, finish 214+14+20 = 248.
		// 248 +0 (hit) → grant 248, finish 248+14+10 = 272.
		// 272 +47 (19+14+14) → grant 319, finish 319+14+5 = 338.
		wantLat := []sim.Time{48, 24, 66}
		wantEnd := []sim.Time{248, 272, 338}
		for k := range wantLat {
			if k >= len(lats) || lats[k] != wantLat[k] || ends[k] != wantEnd[k] {
				t.Fatalf("latencies %v ending %v, want %v ending %v", lats, ends, wantLat, wantEnd)
			}
		}
		if d.Served() != 7 {
			t.Fatalf("served = %d, want 7", d.Served())
		}
		if got := d.Intensity().Total(); got != 7 {
			t.Fatalf("intensity = %d accesses, want 7", got)
		}
		// Each done ran after its record was recycled, so the chain
		// reused one record throughout.
		if n := freeBursts(d); n != 1 {
			t.Fatalf("%d pooled records after the chain, want 1", n)
		}
	})

	t.Run("nil done", func(t *testing.T) {
		eng, d := newDIMM()
		eng.RunUntil(200)
		var lat sim.Time = -1
		// Bank 0 with no callback: recycled at its grant (214).
		d.AccessBurst(trace.MemRequest{Addr: 0x10000, At: 200}, 8, nil)
		// Bank 1, ready at 214 too but queued behind the 40 ns hold.
		d.AccessBurst(trace.MemRequest{Addr: 0x10100, At: 200}, 1, func(l sim.Time) { lat = l })
		eng.Run()
		if lat != 73 { // grant 254, finish 254+14+5
			t.Fatalf("queued access latency = %v, want 73", lat)
		}
		if d.Served() != 9 {
			t.Fatalf("served = %d, want 9", d.Served())
		}
		if got := d.Intensity().Total(); got != 9 {
			t.Fatalf("intensity = %d accesses, want 9", got)
		}
		if n := freeBursts(d); n != 2 {
			t.Fatalf("%d pooled records, want 2", n)
		}
		// A later burst reuses a pooled record rather than a new one.
		d.AccessBurst(trace.MemRequest{Addr: 0x10000, At: eng.Now()}, 1, nil)
		eng.Run()
		if n := freeBursts(d); n != 2 {
			t.Fatalf("%d pooled records after reuse, want 2", n)
		}
	})

	t.Run("mixed Access and AccessBurst", func(t *testing.T) {
		eng, d := newDIMM()
		eng.RunUntil(300)
		var order []string
		var lats []sim.Time
		record := func(name string) func(sim.Time) {
			return func(l sim.Time) {
				order = append(order, name)
				lats = append(lats, l)
			}
		}
		// a: bank 2 row 0, closed → ready 314.
		d.AccessBurst(trace.MemRequest{Addr: 0x200, At: 300}, 1, record("a"))
		// b: bank 3, closed → ready 314, queued behind a.
		d.AccessBurst(trace.MemRequest{Addr: 0x300, At: 300}, 4, record("b"))
		// c: bank 2 row 0 again, a hit on the row a opened → ready 300.
		d.AccessBurst(trace.MemRequest{Addr: 0x240, At: 300}, 1, record("c"))
		eng.Run()
		// c: grant 300, finish 319. a: grant 314, finish 333.
		// b: grant 319 (after a's 5 ns hold), finish 319+14+20 = 353.
		wantOrder := []string{"c", "a", "b"}
		wantLat := []sim.Time{19, 33, 53}
		for k := range wantOrder {
			if k >= len(order) || order[k] != wantOrder[k] || lats[k] != wantLat[k] {
				t.Fatalf("completions %v with latencies %v, want %v with %v", order, lats, wantOrder, wantLat)
			}
		}
		if d.Served() != 6 {
			t.Fatalf("served = %d, want 6", d.Served())
		}
		if got := d.Intensity().Total(); got != 6 {
			t.Fatalf("intensity = %d accesses, want 6", got)
		}
	})
}
