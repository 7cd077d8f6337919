package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestTailHistEmpty(t *testing.T) {
	var h TailHist
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatalf("empty hist not all-zero: count=%d p99=%g max=%g", h.Count(), h.Quantile(0.99), h.Max())
	}
}

func TestTailHistSingleSample(t *testing.T) {
	var h TailHist
	h.Observe(137)
	// Every quantile of a single observation covers that observation;
	// the bound of its bucket lies above it and clamps to the exact max.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		got := h.Quantile(q)
		if got < 137 || got > 137*1.1 {
			t.Fatalf("Quantile(%g) = %g, want within 10%% above 137", q, got)
		}
	}
	if h.Max() != 137 {
		t.Fatalf("Max = %g, want exact 137", h.Max())
	}
}

// tailOracle returns the range TailHist.Quantile(q) must land in for the
// stream xs: above the nearest-rank value x (the ceil(q·n)-th smallest),
// since bucket bounds are exclusive uppers, and at most one 1/8 octave
// above it (values below 1µs share bucket 0). The result may equal x only
// when x is the max, which caps every bound. q = 1 and the top bucket
// answer the exact max, so there lo == hi.
func tailOracle(xs []float64, q float64) (lo, hi float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	max := s[len(s)-1]
	if q >= 1 {
		return max, max
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	x := s[rank-1]
	if x >= tailBounds[tailBuckets-2] {
		return max, max
	}
	// A 1e-12 relative slack absorbs the last-bit rounding of
	// math.Pow between neighbouring bounds.
	return x, math.Max(x, 1) * math.Pow(2, 1.0/tailBucketsPerOctave) * (1 + 1e-12)
}

func TestTailHistQuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var uniform, logUniform, onBounds, aboveTop []float64
	for i := 1; i <= 1000; i++ {
		uniform = append(uniform, float64(i))
	}
	for i := 0; i < 5000; i++ {
		// 1µs .. 10s, uniform in log space.
		logUniform = append(logUniform, math.Exp(rng.Float64()*math.Log(1e7)))
	}
	for i := 0; i < tailBuckets-2; i += 3 {
		onBounds = append(onBounds, tailBounds[i])
	}
	for i := 0; i < 100; i++ {
		v := float64(i + 1)
		if i >= 90 {
			v = tailBounds[tailBuckets-1] * float64(i-88) // 2×..11× the top bound
		}
		aboveTop = append(aboveTop, v)
	}
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"uniform-1..1000", uniform},
		{"log-uniform-1us..10s", logUniform},
		{"on-bucket-bounds", onBounds},
		{"above-top-bound", aboveTop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h TailHist
			for _, x := range tc.xs {
				h.Observe(x)
			}
			for _, q := range qs {
				lo, hi := tailOracle(tc.xs, q)
				got := h.Quantile(q)
				if got < lo || got > hi || (lo < hi && got == lo && lo != h.Max()) {
					t.Errorf("Quantile(%g) = %g, want within (%g, %g]", q, got, lo, hi)
				}
			}
			// NaN and out-of-range q clamp into [0, 1].
			if got, want := h.Quantile(math.NaN()), h.Quantile(0); got != want {
				t.Errorf("Quantile(NaN) = %g, want Quantile(0) = %g", got, want)
			}
			if got, want := h.Quantile(-0.5), h.Quantile(0); got != want {
				t.Errorf("Quantile(-0.5) = %g, want Quantile(0) = %g", got, want)
			}
			if got, want := h.Quantile(1.5), h.Max(); got != want {
				t.Errorf("Quantile(1.5) = %g, want exact max %g", got, want)
			}
		})
	}
}

// TestTailHistQuantileMonotoneAtMostMax checks, over random streams, that
// no quantile exceeds the exact maximum and that quantiles never decrease
// as q grows.
func TestTailHistQuantileMonotoneAtMostMax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for stream := 0; stream < 200; stream++ {
		var h TailHist
		n := 1 + rng.Intn(300)
		for i := 0; i < n; i++ {
			// 0.1µs .. 10s, uniform in log space.
			h.Observe(math.Exp(rng.Float64()*math.Log(1e8)) / 10)
		}
		prev := 0.0
		for k := 0; k <= 200; k++ {
			q := float64(k) / 200
			got := h.Quantile(q)
			if got > h.Max() {
				t.Fatalf("stream %d (n=%d): Quantile(%g) = %g above Max %g", stream, n, q, got, h.Max())
			}
			if got < prev {
				t.Fatalf("stream %d (n=%d): Quantile(%g) = %g below the previous %g", stream, n, q, got, prev)
			}
			prev = got
		}
	}
}

func TestTailHistClamping(t *testing.T) {
	var h TailHist
	h.Observe(-5)         // negative → 0 → bucket 0
	h.Observe(0.1)        // below 1µs → bucket 0
	h.Observe(math.NaN()) // NaN → 0 → bucket 0
	h.Observe(1e9)        // beyond top bound → clamped into last bucket
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4 (clamped values never dropped)", h.Count())
	}
	if h.Max() != 1e9 {
		t.Fatalf("Max = %g, want exact 1e9", h.Max())
	}
	if got := h.Quantile(1); got != 1e9 {
		t.Fatalf("top-bucket quantile = %g, want exact max", got)
	}
	if got := h.Quantile(0.75); got != tailBounds[0] {
		t.Fatalf("Quantile(0.75) = %g, want bucket-0 bound %g (NaN and negatives land there)", got, tailBounds[0])
	}
}

func TestTailTrackerWindows(t *testing.T) {
	eng := sim.NewEngine()
	out := NewTailSeries()
	tr := NewTailTracker(eng, 10*sim.Millisecond, out)
	var windows []sim.Time
	tr.OnWindow = func(at sim.Time, rows []TailRow) { windows = append(windows, at) }
	tr.Start()
	// Two observations in window 1, one in window 2, none in window 3.
	eng.At(2*sim.Millisecond, func() { tr.Observe("ssd", 100); tr.ObserveVMDK(3, 250) })
	eng.At(15*sim.Millisecond, func() { tr.Observe("ssd", 400) })
	if err := eng.RunUntil(35 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	rows := out.rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (ssd+vmdk3 @10ms, ssd @20ms)", len(rows))
	}
	// Keys flush in sorted order within a window.
	if rows[0].Key != "ssd" || rows[0].At != 10*sim.Millisecond || rows[0].Count != 1 {
		t.Fatalf("row0 = %+v", rows[0])
	}
	if rows[1].Key != "vmdk3" || rows[1].At != 10*sim.Millisecond {
		t.Fatalf("row1 = %+v", rows[1])
	}
	if rows[2].Key != "ssd" || rows[2].At != 20*sim.Millisecond || rows[2].Count != 1 {
		t.Fatalf("row2 = %+v", rows[2])
	}
	if len(windows) != 2 {
		t.Fatalf("OnWindow fired %d times, want 2 (empty windows skipped)", len(windows))
	}
	// Lifetime summary survives window resets.
	s := tr.Summary("ssd")
	if s.Count != 2 || s.MaxUS != 400 {
		t.Fatalf("lifetime ssd summary = %+v", s)
	}
	if got := tr.Keys(); len(got) != 2 || got[0] != "ssd" || got[1] != "vmdk3" {
		t.Fatalf("Keys = %v", got)
	}
}

func TestTailTrackerNil(t *testing.T) {
	var tr *TailTracker
	tr.Observe("x", 1) // must not panic
	tr.ObserveVMDK(1, 1)
	tr.Start()
	tr.Stop()
	if tr.Keys() != nil || tr.Summary("x") != (TailSummary{}) {
		t.Fatal("nil tracker not inert")
	}
}

func TestTailSeriesMergePrefixedAndCSV(t *testing.T) {
	a, b := NewTailSeries(), NewTailSeries()
	a.Append(TailRow{At: 10 * sim.Millisecond, Key: "ssd", Count: 2, P50US: 1.5, P95US: 3, P99US: 3, MaxUS: 3.25})
	b.Append(TailRow{At: 10 * sim.Millisecond, Key: "ssd", Count: 1, P50US: 9, P95US: 9, P99US: 9, MaxUS: 9})
	merged := NewTailSeries()
	merged.MergePrefixed(a, "sys0.")
	merged.MergePrefixed(b, "sys1.")
	var sb strings.Builder
	if err := merged.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "time_ms,key,count,p50_us,p95_us,p99_us,max_us\n" +
		"10.000,sys0.ssd,2,1.5,3,3,3.25\n" +
		"10.000,sys1.ssd,1,9,9,9,9\n"
	if sb.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", sb.String(), want)
	}
}
