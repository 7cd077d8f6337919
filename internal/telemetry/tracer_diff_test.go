package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// diffStrings are the track, name, category, key and value strings the
// differential streams draw from: plain ones, ones JSON must escape,
// non-ASCII and invalid UTF-8, and names that a prefix in diffPrefixes
// turns into another entry ("sys0." + "a" == "sys0.a").
var diffStrings = []string{
	"a", "b", "io", "read", "node0.nvdimm.io", "mgmt", "mgmt.mig",
	"sys0.a", "sys0.sys0.a", "sys1.mgmt", "s", "sa",
	"", `say "hi"`, `back\slash`, "tab\tnew\nline", "ctl\x01\x1f",
	"café", "日本語", " sep", "bad\xffutf8", "emoji 🙂",
}

// diffPrefixes are the MergePrefixed prefixes; "" merges tracks into the
// receiver's own names.
var diffPrefixes = []string{"sys0.", "sys1.", "", "s", "é."}

// diffInts and diffFloats hold edge values; streams also draw raw 64-bit
// values.
var (
	diffInts   = []int64{0, 1, -1, 4096, math.MaxInt64, math.MinInt64}
	diffFloats = []float64{0, math.Copysign(0, -1), 0.25, 1e-300, 1e300, 123456789.125,
		math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3}
	diffTimes = []sim.Time{0, 1, 999, 1000, 1500, -1, -5000, math.MaxInt64, math.MinInt64,
		25 * sim.Millisecond, 153700}
)

// opStream decodes a tracer operation stream from bytes; past the end
// every draw is 0.
type opStream struct {
	data []byte
	i    int
}

func (s *opStream) done() bool { return s.i >= len(s.data) }

func (s *opStream) byte() byte {
	if s.done() {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return b
}

func (s *opStream) intn(n int) int { return int(s.byte()) % n }

func (s *opStream) u64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

// str draws a pooled string or, one time in eight, a fresh numbered one
// (a track or value the tracer has not seen).
func (s *opStream) str() string {
	if k := s.intn(len(diffStrings) + 3); k < len(diffStrings) {
		return diffStrings[k]
	}
	return "n" + strconv.Itoa(s.intn(64))
}

func (s *opStream) time() sim.Time {
	if k := s.intn(len(diffTimes) + 1); k < len(diffTimes) {
		return diffTimes[k]
	}
	return sim.Time(s.u64() >> 20)
}

// args draws 0–4 args of every kind.
func (s *opStream) args() []Arg {
	n := s.intn(5)
	args := make([]Arg, n)
	for i := range args {
		key := s.str()
		switch s.intn(4) {
		case 0:
			args[i] = S(key, s.str())
		case 1:
			v := int64(s.u64())
			if k := s.intn(len(diffInts) + 1); k < len(diffInts) {
				v = diffInts[k]
			}
			args[i] = I(key, v)
		case 2:
			args[i] = U(key, s.u64())
		default:
			v := math.Float64frombits(s.u64())
			if k := s.intn(len(diffFloats) + 1); k < len(diffFloats) {
				v = diffFloats[k]
			}
			args[i] = F(key, v)
		}
	}
	return args
}

// diffTracers is the number of tracer pairs a stream drives: index 0 is
// the receiver whose output matters most, the rest are donors that merge
// into it and into each other.
const diffTracers = 3

// diffMaxEvents is the most events a merge may leave in a tracer.
const diffMaxEvents = 1 << 15

// runTracerDiff applies the stream in data to diffTracers pairs of
// (Tracer, refTracer) and fails unless every pair exports the same
// Chrome trace and JSONL bytes and event count. It returns the tracers.
func runTracerDiff(t *testing.T, data []byte) [diffTracers]*Tracer {
	t.Helper()
	s := &opStream{data: data}
	var got [diffTracers]*Tracer
	var want [diffTracers]*refTracer
	for i := range got {
		got[i], want[i] = NewTracer(), newRefTracer()
	}
	for !s.done() {
		i := s.intn(diffTracers)
		switch k := s.intn(8); {
		case k < 4:
			track, name, cat := s.str(), s.str(), s.str()
			start, end := s.time(), s.time()
			args := s.args()
			got[i].Complete(track, name, cat, start, end, args...)
			want[i].Complete(track, name, cat, start, end, refArgs(args)...)
		case k < 7:
			track, name, cat := s.str(), s.str(), s.str()
			at := s.time()
			args := s.args()
			got[i].Instant(track, name, cat, at, args...)
			want[i].Instant(track, name, cat, at, refArgs(args)...)
		default:
			// Merges copy events, so chains of them grow tracers
			// geometrically; diffMaxEvents bounds the stream's memory.
			j := s.intn(diffTracers)
			if j == i || want[i].NumEvents()+want[j].NumEvents() > diffMaxEvents {
				continue
			}
			prefix := diffPrefixes[s.intn(len(diffPrefixes))]
			got[i].MergePrefixed(got[j], prefix)
			want[i].MergePrefixed(want[j], prefix)
		}
	}
	for i := range got {
		if g, w := got[i].NumEvents(), want[i].NumEvents(); g != w {
			t.Fatalf("tracer %d: NumEvents = %d, reference %d", i, g, w)
		}
		var gb, wb bytes.Buffer
		if err := got[i].WriteChromeTrace(&gb); err != nil {
			t.Fatal(err)
		}
		if err := want[i].WriteChromeTrace(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("tracer %d: Chrome trace differs from the reference\ngot:\n%s\nwant:\n%s", i, gb.Bytes(), wb.Bytes())
		}
		gb.Reset()
		wb.Reset()
		if err := got[i].WriteJSONL(&gb); err != nil {
			t.Fatal(err)
		}
		if err := want[i].WriteJSONL(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("tracer %d: JSONL differs from the reference\ngot:\n%s\nwant:\n%s", i, gb.Bytes(), wb.Bytes())
		}
	}
	return got
}

// TestTracerMatchesReference drives the tracer and the reference with
// seeded random streams and compares their exports byte for byte.
func TestTracerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(4096))
		rng.Read(data)
		runTracerDiff(t, data)
	}
}

// TestTracerMatchesReferenceLarge crosses chunk boundaries in both
// tables and the export's flush threshold.
func TestTracerMatchesReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1<<19)
	rng.Read(data)
	got := runTracerDiff(t, data)
	var buf bytes.Buffer
	if err := got[0].WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if n := got[0].NumEvents(); n < 2*chunkLen || got[0].args.n < 2*chunkLen || buf.Len() < 2*exportFlush {
		t.Fatalf("stream too small: %d events, %d args, %d bytes", n, got[0].args.n, buf.Len())
	}
}

func FuzzTracerVsRef(f *testing.F) {
	f.Add([]byte{
		// Tracer 1: Complete("a", "read", "io", 1500, 1000) with a string
		// arg needing escapes, MaxInt64, MaxUint64 and NaN.
		1, 0, 0, 3, 2, 4, 3, 4,
		13, 0, 17,
		1, 1, 0, 0, 0, 0, 0, 0, 0, 5, 4,
		2, 2, 255, 255, 255, 255, 255, 255, 255, 255,
		3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 8,
		// Tracer 1: Instant("sys0.a", "a", "b", -5000) without args.
		1, 4, 7, 0, 1, 6, 0,
		// Tracer 0 merges tracer 1 under "sys0.": "a" becomes "sys0.a".
		0, 7, 1, 0,
		// Tracer 2: Complete("sys0.sys0.a", "a", "a", 0, 1).
		2, 0, 8, 0, 0, 0, 1, 0,
		// Tracer 2 merges tracer 0 under "sys0.": "sys0.a" collides with
		// its own "sys0.sys0.a".
		2, 7, 0, 0,
	})
	f.Add([]byte("span and instant streams with escapes \"\\\n and é"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runTracerDiff(t, data)
	})
}
