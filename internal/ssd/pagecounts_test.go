package ssd

import (
	"testing"

	"repro/internal/sim"
)

// TestPageCountsMatchesMap drives the table and a map with the same
// random stream of increments and decrements over LPN ranges that force
// long probe runs, wrap-around and growth, and compares them after every
// step. The live set is bounded, as buffered pages are.
func TestPageCountsMatchesMap(t *testing.T) {
	for _, span := range []int64{8, 200, 1 << 40} {
		rng := sim.NewRNG(uint64(span))
		var tab pageCounts
		ref := map[int64]int32{}
		var live []int64 // one entry per outstanding increment
		for step := 0; step < 60000; step++ {
			if len(live) < 300 && (len(live) == 0 || rng.Bool(0.5)) {
				lpn := rng.Int63n(span)
				if span > 1000 {
					lpn -= span / 2 // negative LPNs too
				}
				tab.inc(lpn)
				ref[lpn]++
				live = append(live, lpn)
			} else {
				i := rng.Intn(len(live))
				lpn := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				tab.dec(lpn)
				if ref[lpn]--; ref[lpn] == 0 {
					delete(ref, lpn)
				}
			}
			if tab.used != len(ref) {
				t.Fatalf("span %d step %d: %d slots used, map holds %d", span, step, tab.used, len(ref))
			}
			if step%97 == 0 {
				for lpn, n := range ref {
					if got := tab.slots[tab.find(lpn)].n; got != n {
						t.Fatalf("span %d step %d: lpn %d counts %d, want %d", span, step, lpn, got, n)
					}
				}
				for _, c := range tab.slots {
					if c.n != 0 && ref[c.lpn] != c.n {
						t.Fatalf("span %d step %d: stray lpn %d count %d", span, step, c.lpn, c.n)
					}
				}
			}
			probe := rng.Int63n(span)
			if tab.has(probe) != (ref[probe] > 0) {
				t.Fatalf("span %d step %d: has(%d) = %v", span, step, probe, tab.has(probe))
			}
		}
		if len(tab.slots) > 1024 {
			t.Errorf("span %d: table grew to %d slots for at most 300 live LPNs", span, len(tab.slots))
		}
	}
	var empty pageCounts
	empty.dec(5)
	if empty.has(5) {
		t.Fatal("empty table reports a buffered LPN")
	}
}
