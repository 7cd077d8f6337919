package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op.String wrong")
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassNormal:     "normal",
		ClassMigrated:   "migrated",
		ClassPersistent: "persistent",
		Class(9):        "class(9)",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestLatency(t *testing.T) {
	r := IORequest{Issue: 100}
	if r.Latency() != 0 {
		t.Fatal("incomplete request latency != 0")
	}
	r.Complete = 250
	if r.Latency() != 150 {
		t.Fatalf("latency = %v", r.Latency())
	}
}

func TestWCFeatures(t *testing.T) {
	w := WC{WriteRatio: 0.25, OIOs: 4, IOSize: 4096, WriteRand: 0.5, ReadRand: 0.75, FreeSpaceRatio: 0.9}
	f := w.Features()
	names := FeatureNames()
	if len(f) != 6 || len(names) != 6 {
		t.Fatalf("feature count = %d/%d", len(f), len(names))
	}
	want := []float64{0.25, 4, 4096, 0.5, 0.75, 0.9}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("feature[%d] = %v, want %v", i, f[i], want[i])
		}
	}
	if names[0] != "wr_ratio" || names[5] != "free_space_ratio" {
		t.Fatalf("names = %v", names)
	}
}

func issueComplete(a *Analyzer, r *IORequest, issue, complete sim.Time) {
	r.Issue = issue
	a.Issue(r, issue)
	r.Complete = complete
	a.Complete(r, complete)
}

func TestAnalyzerWriteRatio(t *testing.T) {
	a := NewAnalyzer()
	for i := 0; i < 3; i++ {
		issueComplete(a, &IORequest{Op: OpWrite, Offset: int64(i) * 1 << 30, Size: 4096}, sim.Time(i*100), sim.Time(i*100+50))
	}
	issueComplete(a, &IORequest{Op: OpRead, Offset: 1 << 40, Size: 4096}, 1000, 1050)
	w := a.WC()
	if w.WriteRatio != 0.75 {
		t.Fatalf("write ratio = %v", w.WriteRatio)
	}
	if w.IOSize != 4096 {
		t.Fatalf("io size = %v", w.IOSize)
	}
}

func TestAnalyzerSequentialVsRandom(t *testing.T) {
	a := NewAnalyzer()
	// Perfectly sequential reads: each starts where previous ended.
	off := int64(0)
	for i := 0; i < 10; i++ {
		issueComplete(a, &IORequest{Op: OpRead, Offset: off, Size: 4096}, sim.Time(i*100), sim.Time(i*100+10))
		off += 4096
	}
	if rr := a.WC().ReadRand; rr != 0 {
		t.Fatalf("sequential stream read randomness = %v, want 0", rr)
	}

	a.Reset()
	// Fully random reads, far apart.
	for i := 0; i < 10; i++ {
		issueComplete(a, &IORequest{Op: OpRead, Offset: int64(i) * 1 << 30, Size: 4096}, sim.Time(i*100), sim.Time(i*100+10))
	}
	if rr := a.WC().ReadRand; rr != 1 {
		t.Fatalf("random stream read randomness = %v, want 1", rr)
	}
}

func TestAnalyzerSeqWindowTolerance(t *testing.T) {
	a := NewAnalyzer()
	// Gap within SeqWindow still counts as sequential.
	issueComplete(a, &IORequest{Op: OpWrite, Offset: 0, Size: 4096}, 0, 10)
	issueComplete(a, &IORequest{Op: OpWrite, Offset: 4096 + SeqWindow, Size: 4096}, 100, 110)
	if wr := a.WC().WriteRand; wr != 0 {
		t.Fatalf("within-window gap counted random: %v", wr)
	}
	issueComplete(a, &IORequest{Op: OpWrite, Offset: 1 << 30, Size: 4096}, 200, 210)
	if wr := a.WC().WriteRand; wr != 0.5 {
		t.Fatalf("write randomness = %v, want 0.5", wr)
	}
}

func TestAnalyzerInterleavedOpsIndependentStreams(t *testing.T) {
	// Reads and writes track adjacency separately: an interleaved
	// sequential read stream and sequential write stream should both
	// report zero randomness.
	a := NewAnalyzer()
	rOff, wOff := int64(0), int64(1<<35)
	for i := 0; i < 8; i++ {
		issueComplete(a, &IORequest{Op: OpRead, Offset: rOff, Size: 4096}, sim.Time(i*200), sim.Time(i*200+10))
		rOff += 4096
		issueComplete(a, &IORequest{Op: OpWrite, Offset: wOff, Size: 4096}, sim.Time(i*200+100), sim.Time(i*200+110))
		wOff += 4096
	}
	w := a.WC()
	if w.ReadRand != 0 || w.WriteRand != 0 {
		t.Fatalf("interleaved sequential streams: rd=%v wr=%v", w.ReadRand, w.WriteRand)
	}
}

func TestAnalyzerOIO(t *testing.T) {
	a := NewAnalyzer()
	// Two requests outstanding for the entire window.
	r1 := &IORequest{Op: OpRead, Offset: 0, Size: 4096, Issue: 0}
	r2 := &IORequest{Op: OpRead, Offset: 1 << 30, Size: 4096, Issue: 0}
	a.Issue(r1, 0)
	a.Issue(r2, 0)
	r1.Complete = 1000
	a.Complete(r1, 1000)
	r2.Complete = 1000
	a.Complete(r2, 1000)
	oio := a.WC().OIOs
	if oio < 1.9 || oio > 2.1 {
		t.Fatalf("OIO = %v, want ~2", oio)
	}
}

func TestAnalyzerOIOHalfWindow(t *testing.T) {
	a := NewAnalyzer()
	// One request outstanding for the first half, two for the second.
	r1 := &IORequest{Op: OpRead, Offset: 0, Size: 4096, Issue: 0}
	r2 := &IORequest{Op: OpRead, Offset: 1 << 30, Size: 4096, Issue: 500}
	a.Issue(r1, 0)
	a.Issue(r2, 500)
	r1.Complete = 1000
	r2.Complete = 1000
	a.Complete(r1, 1000)
	a.Complete(r2, 1000)
	oio := a.WC().OIOs
	if oio < 1.4 || oio > 1.6 {
		t.Fatalf("OIO = %v, want ~1.5", oio)
	}
}

func TestAnalyzerMeanLatency(t *testing.T) {
	a := NewAnalyzer()
	issueComplete(a, &IORequest{Op: OpRead, Offset: 0, Size: 4096}, 0, 100)
	issueComplete(a, &IORequest{Op: OpRead, Offset: 1 << 30, Size: 4096}, 200, 500)
	if got := a.MeanLatency(); got != 200 {
		t.Fatalf("mean latency = %v, want 200", got)
	}
}

func TestAnalyzerEmptyWC(t *testing.T) {
	a := NewAnalyzer()
	w := a.WC()
	if w.WriteRatio != 0 || w.OIOs != 0 || w.IOSize != 0 {
		t.Fatalf("empty WC non-zero: %v", w)
	}
	if a.MeanLatency() != 0 {
		t.Fatal("empty mean latency non-zero")
	}
}

func TestAnalyzerFreeSpaceClamped(t *testing.T) {
	a := NewAnalyzer()
	a.SetFreeSpaceRatio(1.7)
	if a.WC().FreeSpaceRatio != 1 {
		t.Fatal("free space not clamped high")
	}
	a.SetFreeSpaceRatio(-0.3)
	if a.WC().FreeSpaceRatio != 0 {
		t.Fatal("free space not clamped low")
	}
}

func TestMemIntensity(t *testing.T) {
	var m MemIntensity
	m.Add(1)
	m.Add(1)
	m.Add(1)
	if m.Total() != 3 {
		t.Fatalf("total = %d", m.Total())
	}
	m.Add(16)
	m.Add(4)
	m.Add(0)
	m.Add(-3)
	if m.Total() != 23 {
		t.Fatalf("total after Add = %d, want 23", m.Total())
	}
}

// Property: WC ratio fields always stay within [0,1] and IOSize is
// non-negative, for arbitrary request streams.
func TestAnalyzerWCBoundsProperty(t *testing.T) {
	f := func(ops []bool, offsets []int64, sizes []uint16) bool {
		a := NewAnalyzer()
		n := len(ops)
		if len(offsets) < n {
			n = len(offsets)
		}
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			op := OpRead
			if ops[i] {
				op = OpWrite
			}
			off := offsets[i]
			if off < 0 {
				off = -off
			}
			r := &IORequest{Op: op, Offset: off, Size: int64(sizes[i]) + 1}
			issueComplete(a, r, sim.Time(i*10), sim.Time(i*10+5))
		}
		w := a.WC()
		inUnit := func(x float64) bool { return x >= 0 && x <= 1 }
		return inUnit(w.WriteRatio) && inUnit(w.ReadRand) && inUnit(w.WriteRand) &&
			inUnit(w.FreeSpaceRatio) && w.IOSize >= 0 && w.OIOs >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
