package pagetab

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// check verifies the table's layout: the occupied slots number Len, no
// key is stored twice, every key sits in the probe run that starts at its
// home slot, with no empty slot between the two, and empty slots are
// zeroed.
func (t *Table[V]) check() error {
	full := 0
	seen := make(map[int64]bool, t.n)
	mask := len(t.slots) - 1
	for i, s := range t.slots {
		if !s.full {
			if s.key != 0 {
				return fmt.Errorf("empty slot %d keeps key %d", i, s.key)
			}
			continue
		}
		full++
		if seen[s.key] {
			return fmt.Errorf("key %d stored twice", s.key)
		}
		seen[s.key] = true
		for j := t.home(s.key); j != i; j = (j + 1) & mask {
			if !t.slots[j].full {
				return fmt.Errorf("key %d at slot %d: empty slot %d between it and its home %d", s.key, i, j, t.home(s.key))
			}
		}
	}
	if full != t.n {
		return fmt.Errorf("%d occupied slots, Len %d", full, t.n)
	}
	if len(t.slots) > 0 && 4*t.n > 3*len(t.slots) {
		return fmt.Errorf("%d keys in %d slots, past three-quarter load", t.n, len(t.slots))
	}
	return nil
}

// endKeys are keys whose home slot is the last one in a 64-slot table, and
// in a table of any larger size one of its last 1/64 slots: their probe
// runs wrap the end of the table.
var endKeys = func() []int64 {
	var ks []int64
	for k := int64(0); len(ks) < 48; k++ {
		if uint64(k)*0x9E3779B97F4A7C15>>58 == 63 {
			ks = append(ks, k)
		}
	}
	return ks
}()

// TestEndKeysWrap checks that endKeys does what its tests rely on: the
// keys share the table's last home slot, so their probe run wraps.
func TestEndKeysWrap(t *testing.T) {
	var tab Table[int32]
	for _, k := range endKeys[:20] {
		tab.Put(k, 1)
	}
	if len(tab.slots) != minSlots {
		t.Fatalf("table has %d slots, want %d", len(tab.slots), minSlots)
	}
	if !tab.slots[0].full {
		t.Fatal("the probe run of 20 keys homed at the last slot did not wrap to slot 0")
	}
	if err := tab.check(); err != nil {
		t.Fatal(err)
	}
}

// TestTableMatchesMap drives the table and a map with the same random
// stream of per-key counts, incremented and decremented as the SSD counts
// buffered writes, over key ranges that force long probe runs, wrap-around
// and growth, and compares them after every step. The live set is
// bounded, as buffered pages are.
func TestTableMatchesMap(t *testing.T) {
	for _, span := range []int64{8, 200, 1 << 40} {
		rng := sim.NewRNG(uint64(span))
		var tab Table[int32]
		ref := map[int64]int32{}
		var live []int64 // one entry per outstanding increment
		for step := 0; step < 60000; step++ {
			if len(live) < 300 && (len(live) == 0 || rng.Bool(0.5)) {
				k := rng.Int63n(span)
				if span > 1000 {
					k -= span / 2 // negative keys too
				}
				if rng.Bool(0.1) {
					k = endKeys[rng.Intn(len(endKeys))]
				}
				n, _ := tab.Get(k)
				tab.Put(k, n+1)
				ref[k]++
				live = append(live, k)
			} else {
				i := rng.Intn(len(live))
				k := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if n, _ := tab.Get(k); n > 1 {
					tab.Put(k, n-1)
				} else {
					tab.Delete(k)
				}
				if ref[k]--; ref[k] == 0 {
					delete(ref, k)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("span %d step %d: table holds %d keys, map %d", span, step, tab.n, len(ref))
			}
			if step%97 == 0 {
				for k, n := range ref {
					if got, ok := tab.Get(k); !ok || got != n {
						t.Fatalf("span %d step %d: key %d counts %d (%v), want %d", span, step, k, got, ok, n)
					}
				}
				if err := tab.check(); err != nil {
					t.Fatalf("span %d step %d: %v", span, step, err)
				}
			}
			probe := rng.Int63n(span)
			if _, ok := tab.Get(probe); ok != (ref[probe] > 0) {
				t.Fatalf("span %d step %d: Get(%d) present = %v", span, step, probe, ok)
			}
		}
		if len(tab.slots) > 1024 {
			t.Errorf("span %d: table grew to %d slots for at most 300 live keys", span, len(tab.slots))
		}
	}
	var empty Table[int32]
	empty.Delete(5)
	if _, ok := empty.Get(5); ok || empty.n != 0 {
		t.Fatal("empty table reports a key")
	}
}

// TestTableChurnAllocatesNothing checks that a steady stream of inserts
// of new keys and deletes of old ones, at a bounded live count, allocates
// nothing once the table has grown to hold that count.
func TestTableChurnAllocatesNothing(t *testing.T) {
	var tab Table[int64]
	next := int64(0)
	churn := func() {
		tab.Put(next, next)
		tab.Delete(next - 200)
		next++
	}
	for i := 0; i < 1000; i++ {
		churn()
	}
	if allocs := testing.AllocsPerRun(10000, churn); allocs != 0 {
		t.Fatalf("churn allocates %v per insert/delete pair", allocs)
	}
}

// TestTableClearKeepsSlots checks that Clear empties the table without
// giving back its slots.
func TestTableClearKeepsSlots(t *testing.T) {
	var tab Table[uint64]
	for k := int64(-100); k < 100; k++ {
		tab.Put(k, uint64(k))
	}
	size := len(tab.slots)
	tab.Clear()
	if tab.n != 0 || len(tab.slots) != size {
		t.Fatalf("after Clear: %d keys in %d slots, want 0 in %d", tab.n, len(tab.slots), size)
	}
	if _, ok := tab.Get(3); ok {
		t.Fatal("cleared table still holds key 3")
	}
	tab.Put(math.MinInt64, 7)
	if v, ok := tab.Get(math.MinInt64); !ok || v != 7 {
		t.Fatalf("Get(MinInt64) = %d, %v", v, ok)
	}
}

// TestDenseMatchesMap drives a dense table over a range that ends inside
// a chunk and a map with the same random Set/Delete stream.
func TestDenseMatchesMap(t *testing.T) {
	const n = 3*chunkSize + 17
	d := NewDense(n)
	ref := map[int64]int32{}
	rng := sim.NewRNG(5)
	for step := 0; step < 50000; step++ {
		i := rng.Int63n(n)
		if rng.Bool(0.6) {
			v := int32(rng.Int63n(math.MaxInt32))
			d.Set(i, v)
			ref[i] = v
		} else {
			d.Delete(i)
			delete(ref, i)
		}
		if d.Len() != int64(len(ref)) {
			t.Fatalf("step %d: Len %d, map holds %d", step, d.Len(), len(ref))
		}
		probe := rng.Int63n(n)
		want, ok := ref[probe]
		if !ok {
			want = -1
		}
		if got := d.Get(probe); got != want {
			t.Fatalf("step %d: Get(%d) = %d, want %d", step, probe, got, want)
		}
	}
	if last := d.chunks[len(d.chunks)-1]; last != nil && len(last) != 17 {
		t.Fatalf("last chunk holds %d entries, want 17", len(last))
	}
}

// TestDenseAllocatesChunksLazily checks that a dense table allocates one
// chunk per chunk written, none for reads, and none for a rewrite.
func TestDenseAllocatesChunksLazily(t *testing.T) {
	d := NewDense(1 << 20)
	allocated := func() int {
		c := 0
		for _, ch := range d.chunks {
			if ch != nil {
				c++
			}
		}
		return c
	}
	for i := int64(0); i < 1<<20; i += 997 {
		if d.Get(i) != -1 {
			t.Fatalf("fresh table holds a value at %d", i)
		}
	}
	d.Delete(12345)
	if allocated() != 0 {
		t.Fatalf("reads and deletes allocated %d chunks", allocated())
	}
	d.Set(5, 1)
	d.Set(chunkSize-1, 2)
	d.Set(3*chunkSize, 3)
	if allocated() != 2 {
		t.Fatalf("writes into two chunks allocated %d", allocated())
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Set(7, 9); d.Delete(7) }); allocs != 0 {
		t.Fatalf("rewriting an allocated chunk allocates %v", allocs)
	}
}

// TestDenseRejectsOutOfRange checks that indices outside [0, n) panic,
// also inside the directory's last, partial chunk.
func TestDenseRejectsOutOfRange(t *testing.T) {
	d := NewDense(chunkSize + 3)
	for _, i := range []int64{-1, chunkSize + 3, 2 * chunkSize, math.MinInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			d.Get(i)
		}()
	}
	d.Set(chunkSize, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Set past the range in an allocated chunk did not panic")
			}
		}()
		d.Set(chunkSize+3, 1)
	}()
}

// FuzzPageTableVsMap decodes bytes into Put/Get/Delete/Clear operations on
// a Table and Set/Get/Delete on a Dense, applies each to the table and to
// a Go map, and compares them after every operation. Table keys mix small
// signed keys, keys whose probe runs wrap the end of the table, the int64
// extremes and arbitrary 64-bit keys; the table's layout check runs after
// every operation.
func FuzzPageTableVsMap(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 1, 6, 2, 1, 5, 3, 0, 0})
	f.Add([]byte{0, 2, 0, 0, 2, 1, 2, 2, 0, 1, 2, 0})
	// 20 keys homed at the last slot fill it and wrap to slots 0–18; then
	// each is deleted, oldest first, so every delete shifts the wrapped
	// part of the run back across the table's end.
	var wrap []byte
	for i := 0; i < 20; i++ {
		wrap = append(wrap, 0, 1, byte(i))
	}
	for i := 0; i < 20; i++ {
		wrap = append(wrap, 3, 1, byte(i))
	}
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, data []byte) {
		const denseN = 2*chunkSize + 5
		var tab Table[int32]
		ref := map[int64]int32{}
		dense := NewDense(denseN)
		dref := map[int64]int32{}
		extremes := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -1, 0}
		for op := 0; len(data) >= 3; op++ {
			code, class, b := data[0], data[1], data[2]
			data = data[3:]
			var k int64
			switch class % 4 {
			case 0:
				k = int64(b) - 128
			case 1:
				k = endKeys[int(b)%len(endKeys)]
				if b&0x80 != 0 {
					k = -k
				}
			case 2:
				k = extremes[int(b)%len(extremes)]
			case 3:
				if len(data) < 8 {
					return
				}
				k = int64(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
			v := int32(op)*7 + int32(b)
			di := k % denseN
			if di < 0 {
				di = -di
			}
			switch code % 8 {
			case 0, 1, 2:
				tab.Put(k, v)
				ref[k] = v
				dense.Set(di, v)
				dref[di] = v
			case 3, 4:
				tab.Delete(k)
				delete(ref, k)
				dense.Delete(di)
				delete(dref, di)
			case 5, 6:
				// Get only; compared below.
			case 7:
				tab.Clear()
				clear(ref)
			}
			got, ok := tab.Get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("op %d: Get(%d) = %d, %v; map %d, %v", op, k, got, ok, want, wok)
			}
			dwant, dok := dref[di]
			if !dok {
				dwant = -1
			}
			if dgot := dense.Get(di); dgot != dwant {
				t.Fatalf("op %d: dense Get(%d) = %d; map %d", op, di, dgot, dwant)
			}
			if tab.n != len(ref) || dense.Len() != int64(len(dref)) {
				t.Fatalf("op %d: Len %d / %d; maps %d / %d", op, tab.n, dense.Len(), len(ref), len(dref))
			}
			if err := tab.check(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		for k, want := range ref {
			if got, ok := tab.Get(k); !ok || got != want {
				t.Fatalf("end: Get(%d) = %d, %v; map %d", k, got, ok, want)
			}
		}
		for i, want := range dref {
			if got := dense.Get(i); got != want {
				t.Fatalf("end: dense Get(%d) = %d; map %d", i, got, want)
			}
		}
	})
}
