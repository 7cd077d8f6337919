package ftl

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/flash"
	"repro/internal/sim"
)

// check verifies the FTL's mapping state: every mapped LPN's page maps
// back to it in p2l, p2l holds nothing else, each block's valid count is
// the number of its pages in p2l, and l2p's mapped counter is the number
// of mapped LPNs.
func (f *FTL) check() error {
	var mapped int64
	for lpn := int64(0); lpn < f.logicalPages; lpn++ {
		ppn := int64(f.l2p.Get(lpn))
		if ppn < 0 {
			continue
		}
		mapped++
		if ppn >= f.totalPages {
			return fmt.Errorf("lpn %d maps to ppn %d past %d pages", lpn, ppn, f.totalPages)
		}
		if back, ok := f.p2l.Get(ppn); !ok || int64(back) != lpn {
			return fmt.Errorf("lpn %d maps to ppn %d, which maps back to %d (present %v)", lpn, ppn, back, ok)
		}
	}
	if mapped != f.l2p.Len() {
		return fmt.Errorf("l2p counts %d mapped LPNs, holds %d", f.l2p.Len(), mapped)
	}
	var pages int64
	for b := range f.blocks {
		valid := 0
		start := int64(b) * int64(f.pagesPerBlock)
		for p := start; p < start+int64(f.pagesPerBlock); p++ {
			if _, ok := f.p2l.Get(p); ok {
				valid++
			}
		}
		if f.blocks[b].valid != valid {
			return fmt.Errorf("block %d counts %d valid pages, p2l holds %d", b, f.blocks[b].valid, valid)
		}
		pages += int64(valid)
	}
	if pages != mapped {
		return fmt.Errorf("p2l holds %d pages for %d mapped LPNs", pages, mapped)
	}
	return nil
}

// TestMapLPNFoldsEveryInt64 checks that every LPN folds into
// [0, logicalPages), math.MinInt64 included, and that any other LPN folds
// as its absolute value does.
func TestMapLPNFoldsEveryInt64(t *testing.T) {
	eng, f := tinyFTL(t)
	L := f.logicalPages
	if got, want := f.mapLPN(math.MinInt64), int64(uint64(1<<63)%uint64(L)); got != want {
		t.Fatalf("mapLPN(MinInt64) = %d, want 2^63 mod %d = %d", got, L, want)
	}
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	rng := sim.NewRNG(9)
	probes := []int64{0, 1, -1, L - 1, L, -L, L + 1, -L - 1, math.MaxInt64, math.MinInt64 + 1}
	for i := 0; i < 1000; i++ {
		probes = append(probes, int64(rng.Uint64()), rng.Int63n(4*L)-2*L)
	}
	for _, lpn := range probes {
		got := f.mapLPN(lpn)
		if got != abs(lpn)%L {
			t.Fatalf("mapLPN(%d) = %d, want %d", lpn, got, abs(lpn)%L)
		}
	}
	done := 0
	f.Write(math.MinInt64, func() { done++ })
	f.Read(math.MinInt64, func() { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("%d of 2 operations on LPN MinInt64 completed", done)
	}
	if err := f.check(); err != nil {
		t.Fatal(err)
	}
}

// TestFTLMatchesReference runs a GC-heavy random stream of overwrites and
// reads (after Prefill(0.9)) through the FTL and through refFTL, the same
// layer with Go maps for l2p and p2l, each on its own engine and flash.
// Operations overlap: between two of them the engines run only a random
// slice of simulated time, often none, so writes queue behind GC and GC
// chains cross foreground traffic. After every operation the mappings, block state,
// free list, GC state, counters and completion order must be the same.
func TestFTLMatchesReference(t *testing.T) {
	fcfg := flash.DefaultConfig()
	fcfg.NumChannels = 2
	fcfg.ChipsPerChannel = 2
	fcfg.PagesPerBlock = 4
	for seed := uint64(1); seed <= 3; seed++ {
		engF, engR := sim.NewEngine(), sim.NewEngine()
		f := New(flash.New(engF, fcfg), 96)
		r := newRef(flash.New(engR, fcfg), 96)
		f.Prefill(0.9)
		r.Prefill(0.9)
		var logF, logR []int
		compareFTL(t, "prefill", f, r)
		rng := sim.NewRNG(seed)
		L := f.logicalPages
		for op := 0; op < 4000; op++ {
			var lpn int64
			switch rng.Intn(10) {
			case 0:
				lpn = -rng.Int63n(2 * L)
			case 1:
				lpn = int64(rng.Uint64())
			default:
				lpn = rng.Int63n(L)
			}
			id := op
			if rng.Bool(0.75) {
				f.Write(lpn, func() { logF = append(logF, id) })
				r.Write(lpn, func() { logR = append(logR, id) })
			} else {
				f.Read(lpn, func() { logF = append(logF, id) })
				r.Read(lpn, func() { logR = append(logR, id) })
			}
			// Bursts of back-to-back operations queue writes behind GC;
			// idle stretches let the queue drain.
			var gap sim.Time
			if rng.Bool(0.5) {
				gap = sim.Time(rng.Int63n(int64(12 * sim.Millisecond)))
			}
			until := engF.Now() + gap
			if err := engF.RunUntil(until); err != nil {
				t.Fatal(err)
			}
			if err := engR.RunUntil(until); err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("seed %d op %d (lpn %d)", seed, op, lpn)
			compareFTL(t, at, f, r)
			if !slices.Equal(logF, logR) {
				t.Fatalf("%s: completions %v, reference %v", at, logF, logR)
			}
		}
		engF.Run()
		engR.Run()
		compareFTL(t, fmt.Sprintf("seed %d drained", seed), f, r)
		if !slices.Equal(logF, logR) || len(logF) != 4000 {
			t.Fatalf("seed %d: %d completions, reference %d", seed, len(logF), len(logR))
		}
		if f.Stats().GCRuns == 0 || f.Stats().GCWrites == 0 {
			t.Fatalf("seed %d: no GC relocation ran (%+v)", seed, f.Stats())
		}
	}
}

// compareFTL fails the test unless f passes its check and holds the same
// state as r.
func compareFTL(t *testing.T, at string, f *FTL, r *refFTL) {
	t.Helper()
	if err := f.check(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	for lpn := int64(0); lpn < f.logicalPages; lpn++ {
		want, ok := r.l2p[lpn]
		if !ok {
			want = -1
		}
		if got := int64(f.l2p.Get(lpn)); got != want {
			t.Fatalf("%s: l2p[%d] = %d, reference %d", at, lpn, got, want)
		}
	}
	if f.l2p.Len() != int64(len(r.l2p)) {
		t.Fatalf("%s: %d mapped LPNs, reference %d", at, f.l2p.Len(), len(r.l2p))
	}
	for ppn := int64(0); ppn < f.totalPages; ppn++ {
		got, gok := f.p2l.Get(ppn)
		want, wok := r.p2l[ppn]
		if gok != wok || int64(got) != want {
			t.Fatalf("%s: p2l[%d] = %d (%v), reference %d (%v)", at, ppn, got, gok, want, wok)
		}
	}
	if !slices.Equal(f.blocks, r.blocks) {
		t.Fatalf("%s: blocks %v, reference %v", at, f.blocks, r.blocks)
	}
	if !slices.Equal(f.free, r.free) {
		t.Fatalf("%s: free list %v, reference %v", at, f.free, r.free)
	}
	if f.userActive != r.userActive || f.gcActive != r.gcActive || f.gcRunning != r.gcRunning ||
		len(f.pending) != len(r.pending) || f.fullValidGCs != r.fullValidGCs {
		t.Fatalf("%s: active %d/%d gc %v pending %d, reference %d/%d gc %v pending %d", at,
			f.userActive, f.gcActive, f.gcRunning, len(f.pending),
			r.userActive, r.gcActive, r.gcRunning, len(r.pending))
	}
	if f.Stats() != r.Stats() || f.userWrites != r.userWrites {
		t.Fatalf("%s: stats %+v (user %d), reference %+v (user %d)", at, f.Stats(), f.userWrites, r.Stats(), r.userWrites)
	}
	if f.UtilizedRatio() != r.UtilizedRatio() || f.WriteAmplification() != r.WriteAmplification() {
		t.Fatalf("%s: utilization %v WA %v, reference %v %v", at,
			f.UtilizedRatio(), f.WriteAmplification(), r.UtilizedRatio(), r.WriteAmplification())
	}
}
