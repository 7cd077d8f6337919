package ssd

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func testSSD(t *testing.T) (*sim.Engine, *SSD) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig("ssd0", 2<<30, 64)
	cfg.Flash.NumChannels = 4
	cfg.Flash.ChipsPerChannel = 2
	cfg.Flash.PagesPerBlock = 16
	return eng, New(eng, cfg)
}

func run(t *testing.T, eng *sim.Engine, s *SSD, r *trace.IORequest) *trace.IORequest {
	t.Helper()
	done := false
	s.Submit(r, func(*trace.IORequest) { done = true })
	eng.Run()
	if !done {
		t.Fatal("request never completed")
	}
	return r
}

func TestLinkTime(t *testing.T) {
	// 4096 bytes at 4096 MB/s = 1 µs.
	if got := linkTime(4096); got != sim.Microsecond {
		t.Fatalf("linkTime = %v", got)
	}
	if linkTime(0) != 0 || linkTime(-1) != 0 {
		t.Fatal("non-positive sizes should be free")
	}
	if linkTime(1) < 1 {
		t.Fatal("sub-ns transfer should round up")
	}
}

func TestReadLatencyBallpark(t *testing.T) {
	eng, s := testSSD(t)
	r := run(t, eng, s, &trace.IORequest{Op: trace.OpRead, Offset: 0, Size: 4096})
	// Overhead (250us) + flash (60us) + link (~1us): Table 1 PCIe SSD
	// reads are ~400us loaded; QD1 lands a bit above 300us.
	if r.Latency() < 300*sim.Microsecond || r.Latency() > 500*sim.Microsecond {
		t.Fatalf("SSD read latency = %v, want ~310-400us", r.Latency())
	}
}

func TestWriteLatencyBallpark(t *testing.T) {
	eng, s := testSSD(t)
	r := run(t, eng, s, &trace.IORequest{Op: trace.OpWrite, Offset: 0, Size: 4096})
	// Table 1: ~15 µs buffered write.
	if r.Latency() < 10*sim.Microsecond || r.Latency() > 30*sim.Microsecond {
		t.Fatalf("SSD write latency = %v, want ~15us", r.Latency())
	}
}

func TestWriteMuchFasterThanRead(t *testing.T) {
	eng, s := testSSD(t)
	w := run(t, eng, s, &trace.IORequest{Op: trace.OpWrite, Offset: 0, Size: 4096})
	r := run(t, eng, s, &trace.IORequest{Op: trace.OpRead, Offset: 1 << 20, Size: 4096})
	if w.Latency()*5 > r.Latency() {
		t.Fatalf("write (%v) should be far faster than read (%v)", w.Latency(), r.Latency())
	}
}

func TestReadAfterWriteServedFromBuffer(t *testing.T) {
	eng, s := testSSD(t)
	s.Submit(&trace.IORequest{Op: trace.OpWrite, Offset: 0, Size: 4096}, nil)
	// Immediately read the same page while the flush is still in flight.
	r := &trace.IORequest{Op: trace.OpRead, Offset: 0, Size: 4096}
	s.Submit(r, nil)
	eng.Run()
	// Buffer-resident: no flash sense needed, so latency ≈ overhead+link.
	if r.Latency() > ReadOverhead+10*sim.Microsecond {
		t.Fatalf("buffered read latency = %v", r.Latency())
	}
}

func TestOutstandingIOsRaiseLatency(t *testing.T) {
	// Fig. 5(a): latency rises with outstanding I/Os.
	meanAt := func(qd int) float64 {
		eng, s := testSSD(t)
		for i := 0; i < qd; i++ {
			s.Submit(&trace.IORequest{Op: trace.OpRead, Offset: int64(i) * 1 << 20, Size: 4096}, nil)
		}
		eng.Run()
		return s.Metrics().Lifetime.Mean()
	}
	if meanAt(16) <= meanAt(1) {
		t.Fatal("QD16 mean latency should exceed QD1")
	}
}

func TestPrefillAndFreeSpace(t *testing.T) {
	_, s := testSSD(t)
	if s.FreeSpaceRatio() != 1 {
		t.Fatal("fresh SSD not empty")
	}
	s.ftl.Prefill(0.8)
	s.SetUsed(int64(0.8 * float64(s.Capacity())))
	if fs := s.FreeSpaceRatio(); fs > 0.25 {
		t.Fatalf("free space after 80%% prefill = %v", fs)
	}
}

// TestWriteBackpressure submits twice the flush backlog cap at once: the
// backlog fills to the cap and no further, later writes stall, and every
// write still completes.
func TestWriteBackpressure(t *testing.T) {
	eng, s := testSSD(t)
	completions := 0
	const n = 2 * maxPendingFlush
	for i := 0; i < n; i++ {
		s.Submit(&trace.IORequest{Op: trace.OpWrite, Offset: int64(i) * 4096, Size: 4096},
			func(*trace.IORequest) { completions++ })
	}
	peakBacklog, peakStalls := 0, 0
	for eng.Step() {
		peakBacklog = max(peakBacklog, s.pendingFlush)
		peakStalls = max(peakStalls, len(s.stalls))
	}
	if peakBacklog != maxPendingFlush || peakStalls == 0 {
		t.Fatalf("peak backlog %d (cap %d), peak stalled writes %d; want the cap reached and writes stalled",
			peakBacklog, maxPendingFlush, peakStalls)
	}
	if completions != n {
		t.Fatalf("completions = %d/%d", completions, n)
	}
	if s.outstanding != 0 {
		t.Fatalf("outstanding = %d", s.outstanding)
	}
}

func TestKind(t *testing.T) {
	_, s := testSSD(t)
	if s.Kind().String() != "SSD" {
		t.Fatalf("kind = %v", s.Kind())
	}
}

// TestRecordReuseAfterPreMarkedFailure runs requests through the request
// record a pre-marked failure (fault injection) just released: each must
// take its own path, carry its own status, and complete once, to its own
// completion — a nil one included.
func TestRecordReuseAfterPreMarkedFailure(t *testing.T) {
	eng, s := testSSD(t)
	injected := errors.New("injected")
	calls := 0
	failed := &trace.IORequest{Op: trace.OpWrite, Offset: 0, Size: 8192, Err: injected}
	s.Submit(failed, func(c *trace.IORequest) {
		calls++
		if c != failed || c.Err != injected {
			t.Fatalf("failure completed with %p err %v, want %p err %v", c, c.Err, failed, injected)
		}
	})
	eng.Run()
	if s.ftl.UtilizedRatio() != 0 || s.pendingFlush != 0 {
		t.Fatal("a pre-marked failed write reached the write buffer or flash")
	}

	write := &trace.IORequest{Op: trace.OpWrite, Offset: 0, Size: 8192}
	s.Submit(write, nil)
	eng.Run()
	read := run(t, eng, s, &trace.IORequest{Op: trace.OpRead, Offset: 1 << 20, Size: 4096})
	if calls != 1 {
		t.Fatalf("the failed request's completion ran %d times, want 1", calls)
	}
	if write.Err != nil || write.Complete == 0 {
		t.Fatalf("write after the failure: err %v, complete %v", write.Err, write.Complete)
	}
	if s.ftl.UtilizedRatio() == 0 {
		t.Fatal("the write after the failure never reached flash")
	}
	// The failure path pays overhead and link only; a read that reached
	// flash pays the page read too.
	if read.Err != nil || read.Latency() <= ReadOverhead+linkTime(read.Size) {
		t.Fatalf("read after the failure: err %v, latency %v, want a flash read", read.Err, read.Latency())
	}
	m := s.Metrics()
	if m.TotalErrors != 1 || m.TotalWrites != 1 || m.TotalReads != 1 {
		t.Fatalf("metrics: %d errors, %d writes, %d reads; want 1 each", m.TotalErrors, m.TotalWrites, m.TotalReads)
	}
	if s.outstanding != 0 {
		t.Fatalf("outstanding = %d after every request completed", s.outstanding)
	}
}
