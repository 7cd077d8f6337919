package ftl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flash"
	"repro/internal/sim"
)

// tinyFTL builds a small FTL for fast tests: 2 channels × 2 chips,
// 2 pages/block, 128 blocks (256 pages). The 7% over-provisioning then
// leaves 9 blocks of spare space, above the GC low water of 4.
func tinyFTL(t *testing.T) (*sim.Engine, *FTL) {
	t.Helper()
	eng := sim.NewEngine()
	fcfg := flash.DefaultConfig()
	fcfg.NumChannels = 2
	fcfg.ChipsPerChannel = 2
	fcfg.PagesPerBlock = 2
	fl := flash.New(eng, fcfg)
	f := New(fl, 128)
	return eng, f
}

func TestNewPanicsOnTinyBlockCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for too-few blocks")
		}
	}()
	New(flash.New(sim.NewEngine(), flash.DefaultConfig()), gcLowWater+2)
}

func TestLogicalSmallerThanPhysical(t *testing.T) {
	_, f := tinyFTL(t)
	if f.logicalPages >= f.totalPages {
		t.Fatalf("logical %d should be < physical %d", f.logicalPages, f.totalPages)
	}
	if f.PageSize() != 4096 {
		t.Fatalf("page size = %d", f.PageSize())
	}
}

func TestWriteThenReadMapped(t *testing.T) {
	eng, f := tinyFTL(t)
	wrote := false
	f.Write(5, func() { wrote = true })
	eng.Run()
	if !wrote {
		t.Fatal("write never completed")
	}
	if f.l2p.Get(5) < 0 {
		t.Fatal("mapping not installed")
	}
	read := false
	f.Read(5, func() { read = true })
	eng.Run()
	if !read {
		t.Fatal("read never completed")
	}
}

func TestUnmappedReadStillCompletes(t *testing.T) {
	eng, f := tinyFTL(t)
	done := false
	f.Read(42, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("unmapped read did not complete")
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	eng, f := tinyFTL(t)
	f.Write(7, nil)
	eng.Run()
	first := f.l2p.Get(7)
	f.Write(7, nil)
	eng.Run()
	second := f.l2p.Get(7)
	if first == second {
		t.Fatal("overwrite reused the same physical page")
	}
	if _, ok := f.p2l.Get(int64(first)); ok {
		t.Fatal("old page still marked valid")
	}
	if f.UtilizedRatio() <= 0 {
		t.Fatal("utilization should be positive")
	}
}

func TestSequentialWritesStripeChannels(t *testing.T) {
	eng, f := tinyFTL(t)
	// Two sequential writes land on consecutive PPNs → different channels.
	f.Write(0, nil)
	f.Write(1, nil)
	eng.Run()
	ch0, _ := f.fl.Locate(int64(f.l2p.Get(0)))
	ch1, _ := f.fl.Locate(int64(f.l2p.Get(1)))
	if ch0 == ch1 {
		t.Fatalf("sequential writes on same channel %d", ch0)
	}
}

func TestGCTriggersAndReclaims(t *testing.T) {
	eng, f := tinyFTL(t)
	// Overwrite a small LPN set far more times than the device holds,
	// creating invalid pages and forcing GC.
	for i := 0; i < 300; i++ {
		f.Write(int64(i%10), nil)
		eng.Run()
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	if st.Erases == 0 {
		t.Fatal("no blocks erased")
	}
	if f.FreeBlocks() == 0 {
		t.Fatal("GC failed to keep free blocks available")
	}
	// Only 10 live LPNs remain mapped.
	if f.l2p.Len() != 10 {
		t.Fatalf("mapped LPNs = %d, want 10", f.l2p.Len())
	}
}

func TestWriteAmplificationAboveOneUnderPressure(t *testing.T) {
	eng, f := tinyFTL(t)
	f.Prefill(0.9)
	// Random-ish overwrites across the full logical space.
	for i := 0; i < 400; i++ {
		f.Write(int64((i*37)%int(f.logicalPages)), nil)
		eng.Run()
	}
	if wa := f.WriteAmplification(); wa <= 1 {
		t.Fatalf("write amplification = %v, want > 1 under 90%% fill", wa)
	}
}

func TestWriteAmplificationDefault(t *testing.T) {
	_, f := tinyFTL(t)
	if f.WriteAmplification() != 1 {
		t.Fatal("WA with no writes should be 1")
	}
}

func TestPrefill(t *testing.T) {
	_, f := tinyFTL(t)
	f.Prefill(0.5)
	got := f.UtilizedRatio()
	if got < 0.45 || got > 0.55 {
		t.Fatalf("prefill(0.5) utilization = %v", got)
	}
	if f.FreeSpaceRatio() < 0.45 || f.FreeSpaceRatio() > 0.55 {
		t.Fatalf("free space = %v", f.FreeSpaceRatio())
	}
	// Prefill is idempotent for already-mapped pages.
	f.Prefill(0.5)
	if f.UtilizedRatio() != got {
		t.Fatal("double prefill changed utilization")
	}
	// Clamps out-of-range ratios.
	f.Prefill(-1)
	f.Prefill(0)
	if f.UtilizedRatio() != got {
		t.Fatal("clamped prefill changed utilization")
	}
}

func TestLowFreeSpaceSlowsWrites(t *testing.T) {
	// The write cliff: the same write stream takes longer on a 90%-full
	// device than on an empty one.
	elapsed := func(prefill float64) sim.Time {
		eng, f := tinyFTL(t)
		f.Prefill(prefill)
		for i := 0; i < 200; i++ {
			f.Write(int64((i*53)%int(f.logicalPages)), nil)
			eng.Run()
		}
		return eng.Now()
	}
	empty := elapsed(0)
	full := elapsed(0.95)
	if full <= empty {
		t.Fatalf("95%% full (%v) should be slower than empty (%v)", full, empty)
	}
}

func TestNegativeLPNMapped(t *testing.T) {
	eng, f := tinyFTL(t)
	done := false
	f.Write(-17, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("negative LPN write did not complete")
	}
}

func TestPendingWritesDrainAfterGC(t *testing.T) {
	eng, f := tinyFTL(t)
	f.Prefill(1.0)
	completions := 0
	const n = 50
	for i := 0; i < n; i++ {
		f.Write(int64(i), func() { completions++ })
	}
	eng.Run()
	if completions != n {
		t.Fatalf("only %d/%d writes completed under full-device pressure", completions, n)
	}
}

// Property: after any sequence of writes, every l2p entry has a matching
// p2l entry and block valid counts equal the number of mapped pages.
func TestMappingConsistencyProperty(t *testing.T) {
	f2 := func(lpns []int16) bool {
		eng, f := tinyFTL(t)
		for _, l := range lpns {
			f.Write(int64(l), nil)
		}
		eng.Run()
		for lpn := int64(0); lpn < f.logicalPages; lpn++ {
			ppn := f.l2p.Get(lpn)
			if ppn < 0 {
				continue
			}
			back, ok := f.p2l.Get(int64(ppn))
			if !ok || int64(back) != lpn {
				return false
			}
		}
		validSum := 0
		for i := range f.blocks {
			validSum += f.blocks[i].valid
		}
		return int64(validSum) == f.l2p.Len() && f.check() == nil
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeSpaceRatioClamped(t *testing.T) {
	_, f := tinyFTL(t)
	if fs := f.FreeSpaceRatio(); fs != 1 {
		t.Fatalf("empty device free space = %v", fs)
	}
}
