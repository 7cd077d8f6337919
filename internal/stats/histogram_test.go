package stats_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The simulator's one latency histogram is telemetry.TailHist; this
// package keeps only exact statistics. These tests hold the histogram to
// the quantile contract that stats.Percentile documents for exact
// samples: an empty input answers 0, NaN or negative q clamps to the low
// end, q above 1 clamps to the exact maximum, and values outside the
// bucket range are clamped, never dropped.

// octave8 is the width of one TailHist bucket: 2^(1/8). A 1e-12 relative
// slack absorbs the last-bit rounding of math.Pow between bucket bounds.
var octave8 = math.Pow(2, 1.0/8) * (1 + 1e-12)

// nearestRank returns the ceil(q·n)-th smallest value of xs (at least the
// first), the observation whose bucket TailHist.Quantile(q) reports.
func nearestRank(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func TestHistogramQuantile(t *testing.T) {
	var empty telemetry.TailHist
	if got := empty.Quantile(0.5); got != 0 || got != stats.Percentile(nil, 50) {
		t.Fatalf("empty histogram quantile = %v, want 0 like Percentile(nil, 50)", got)
	}

	rng := rand.New(rand.NewSource(5))
	var xs []float64
	var h telemetry.TailHist
	for i := 0; i < 2000; i++ {
		// 1µs .. 1s, uniform in log space: every value is in bucket range.
		x := math.Exp(rng.Float64() * math.Log(1e6))
		xs = append(xs, x)
		h.Observe(x)
	}
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999} {
		x := nearestRank(xs, q)
		if got := h.Quantile(q); got <= x || got > x*octave8 {
			t.Errorf("Quantile(%v) = %v, want within (%v, %v]", q, got, x, x*octave8)
		}
	}
	if got, want := h.Quantile(0), stats.Percentile(xs, 0); got <= want || got > want*octave8 {
		t.Errorf("Quantile(0) = %v, want within one bucket above the minimum %v", got, want)
	}
	if got, want := h.Quantile(1), stats.Percentile(xs, 100); got != want {
		t.Errorf("Quantile(1) = %v, want the exact maximum %v", got, want)
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	xs := []float64{5, 15, 25, 95}
	var h telemetry.TailHist
	for _, x := range xs {
		h.Observe(x)
	}
	lo := h.Quantile(0)
	if got := h.Quantile(math.NaN()); got != lo {
		t.Errorf("Quantile(NaN) = %v, want %v", got, lo)
	}
	if got := h.Quantile(-3); got != lo {
		t.Errorf("Quantile(-3) = %v, want %v", got, lo)
	}
	hi := h.Quantile(1)
	if got := h.Quantile(7); got != hi {
		t.Errorf("Quantile(7) = %v, want %v", got, hi)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Error("quantile bounds are NaN")
	}
	// Percentile clamps the same way on the exact sample.
	if got, want := stats.Percentile(xs, math.NaN()), stats.Percentile(xs, 0); got != want {
		t.Errorf("Percentile(NaN) = %v, want Percentile(0) = %v", got, want)
	}
	if got, want := hi, stats.Percentile(xs, 700); got != want {
		t.Errorf("Quantile(1) = %v, want Percentile(700) = %v", got, want)
	}
	if lo < stats.Percentile(xs, -300) {
		t.Errorf("Quantile(0) = %v is below the minimum %v", lo, stats.Percentile(xs, -300))
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	var h telemetry.TailHist
	var moments stats.Summary
	for _, x := range []float64{-50, 0.1, 1e9, 55} {
		h.Observe(x)
		moments.Add(x)
	}
	h.Observe(math.NaN()) // treated as 0, like a negative latency
	if h.Count() != moments.N()+1 {
		t.Fatalf("Count = %d, want %d (clamped values must still count)", h.Count(), moments.N()+1)
	}
	// -50, 0.1 and NaN all land in the bucket below 2^(1/8) µs.
	bottom := h.Quantile(0)
	if bottom >= 2 {
		t.Fatalf("Quantile(0) = %v, want the first bucket bound", bottom)
	}
	if got := h.Quantile(0.6); got != bottom {
		t.Errorf("Quantile(0.6) = %v, want first bucket bound %v", got, bottom)
	}
	if got := h.Quantile(0.8); got <= 55 || got > 55*octave8 {
		t.Errorf("Quantile(0.8) = %v, want within one bucket above 55", got)
	}
	// 1e9 µs is beyond the top bound: it sits in the last bucket, which
	// reports the exact maximum rather than a bucket bound.
	if got := h.Quantile(0.99); got != moments.Max() {
		t.Errorf("Quantile(0.99) = %v, want exact max %v", got, moments.Max())
	}
	if h.Max() != moments.Max() {
		t.Errorf("Max = %v, want %v", h.Max(), moments.Max())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h telemetry.TailHist
	h.Observe(42)
	// The bound of the bucket holding 42 lies above the maximum, so every
	// quantile answers the exact 42.
	want := stats.Percentile([]float64{42}, 100)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want exact %v", q, got, want)
		}
	}
}
