package hdd

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func newHDD(t *testing.T) (*sim.Engine, *HDD) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, Config{Name: "hdd0", Capacity: 1 << 40, Seed: 1})
}

func run(t *testing.T, eng *sim.Engine, h *HDD, r *trace.IORequest) *trace.IORequest {
	t.Helper()
	done := false
	h.Submit(r, func(*trace.IORequest) { done = true })
	eng.Run()
	if !done {
		t.Fatal("request never completed")
	}
	return r
}

func TestRandomReadMillisecondScale(t *testing.T) {
	eng, h := newHDD(t)
	r := run(t, eng, h, &trace.IORequest{Op: trace.OpRead, Offset: 500 << 30, Size: 4096})
	// Seek + rotation: Table 1 says ~5 ms.
	if r.Latency() < sim.Millisecond || r.Latency() > 20*sim.Millisecond {
		t.Fatalf("random HDD read = %v, want millisecond scale", r.Latency())
	}
	if h.Seeks() != 1 {
		t.Fatalf("seeks = %d", h.Seeks())
	}
}

func TestSequentialStreamFast(t *testing.T) {
	eng, h := newHDD(t)
	// Position the head.
	run(t, eng, h, &trace.IORequest{Op: trace.OpRead, Offset: 0, Size: 4096})
	r := run(t, eng, h, &trace.IORequest{Op: trace.OpRead, Offset: 4096, Size: 4096})
	// Pure media transfer: 4KB at 150MB/s ≈ 27 µs.
	if r.Latency() > 100*sim.Microsecond {
		t.Fatalf("sequential read = %v, want media-rate only", r.Latency())
	}
	if h.seqHits == 0 {
		t.Fatal("sequential hit not counted")
	}
}

func TestRandomnessRaisesMeanLatency(t *testing.T) {
	// Fig. 5(c): latency grows with randomness.
	mean := func(randomFrac float64) float64 {
		eng := sim.NewEngine()
		h := New(eng, Config{Name: "hdd", Capacity: 1 << 40, Seed: 1})
		rng := sim.NewRNG(7)
		off := int64(0)
		for i := 0; i < 200; i++ {
			if rng.Float64() < randomFrac {
				off = rng.Int63n(h.Capacity() - 4096)
			}
			h.Submit(&trace.IORequest{Op: trace.OpRead, Offset: off, Size: 4096}, nil)
			eng.Run()
			off += 4096
		}
		return h.Metrics().Lifetime.Mean()
	}
	m0 := mean(0)
	m50 := mean(0.5)
	m100 := mean(1)
	if !(m0 < m50 && m50 < m100) {
		t.Fatalf("latency not increasing with randomness: %v, %v, %v", m0, m50, m100)
	}
}

func TestFIFOSerialization(t *testing.T) {
	eng, h := newHDD(t)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		h.Submit(&trace.IORequest{Op: trace.OpRead, Offset: int64(i) * 100 << 30, Size: 4096},
			func(*trace.IORequest) { order = append(order, i) })
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order = %v", order)
	}
	if h.outstanding != 0 {
		t.Fatalf("outstanding = %d", h.outstanding)
	}
}

func TestSeekProportionalToDistance(t *testing.T) {
	near := func() sim.Time {
		eng, h := newHDD(t)
		run(t, eng, h, &trace.IORequest{Op: trace.OpRead, Offset: 0, Size: 4096})
		r := run(t, eng, h, &trace.IORequest{Op: trace.OpRead, Offset: 1 << 20, Size: 4096})
		return r.Latency()
	}()
	far := func() sim.Time {
		eng, h := newHDD(t)
		run(t, eng, h, &trace.IORequest{Op: trace.OpRead, Offset: 0, Size: 4096})
		r := run(t, eng, h, &trace.IORequest{Op: trace.OpRead, Offset: 900 << 30, Size: 4096})
		return r.Latency()
	}()
	// Same rotational draw (same seed, same draw index) so the seek
	// component dominates the difference.
	if far <= near {
		t.Fatalf("far seek (%v) should exceed near seek (%v)", far, near)
	}
}

func TestDefaultCapacity(t *testing.T) {
	h := New(sim.NewEngine(), Config{Name: "x"})
	if h.Capacity() != 1<<40 {
		t.Fatalf("default capacity = %d", h.Capacity())
	}
	if h.Kind().String() != "HDD" {
		t.Fatalf("kind = %v", h.Kind())
	}
}

func TestWriteSameAsReadMechanics(t *testing.T) {
	eng, h := newHDD(t)
	w := run(t, eng, h, &trace.IORequest{Op: trace.OpWrite, Offset: 300 << 30, Size: 4096})
	if w.Latency() < sim.Millisecond {
		t.Fatalf("random write = %v, should pay seek+rotation like reads", w.Latency())
	}
}

// TestRecordReuseAfterPreMarkedFailure runs a request through the record
// a pre-marked failure (fault injection) just released: it must carry its
// own status and complete once, and the failure's completion must not run
// again — the second request's completion is nil.
func TestRecordReuseAfterPreMarkedFailure(t *testing.T) {
	eng, h := newHDD(t)
	injected := errors.New("injected")
	calls := 0
	failed := &trace.IORequest{Op: trace.OpRead, Offset: 0, Size: 4096, Err: injected}
	h.Submit(failed, func(c *trace.IORequest) {
		calls++
		if c != failed || c.Err != injected {
			t.Fatalf("failure completed with %p err %v, want %p err %v", c, c.Err, failed, injected)
		}
	})
	eng.Run()
	next := &trace.IORequest{Op: trace.OpWrite, Offset: 4096, Size: 4096}
	h.Submit(next, nil)
	eng.Run()
	if calls != 1 {
		t.Fatalf("the failed request's completion ran %d times, want 1", calls)
	}
	if next.Err != nil || next.Complete == 0 || next.Complete < failed.Complete {
		t.Fatalf("request after the failure: err %v, complete %v (failure completed %v)",
			next.Err, next.Complete, failed.Complete)
	}
	m := h.Metrics()
	if m.TotalErrors != 1 || m.TotalWrites != 1 || m.TotalReads != 0 {
		t.Fatalf("metrics: %d errors, %d writes, %d reads; want 1, 1, 0", m.TotalErrors, m.TotalWrites, m.TotalReads)
	}
	if h.outstanding != 0 {
		t.Fatalf("outstanding = %d after every request completed", h.outstanding)
	}
}
