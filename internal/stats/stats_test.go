package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasic(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEqual(s.Mean(), 5, 1e-9) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 9 {
		t.Fatalf("max = %v", s.Max())
	}
	if got := s.Mean() * float64(s.N()); !almostEqual(got, 40, 1e-9) {
		t.Fatalf("sum = %v", got)
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not zero")
	}
	s.Add(3.5)
	if s.N() != 1 || s.Mean() != 3.5 || s.Max() != 3.5 {
		t.Fatal("single-element summary wrong")
	}
}

func TestPercentileValues(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if got := Percentile(xs, 50); !almostEqual(got, 50.5, 1e-9) {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 0); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); !almostEqual(got, 100, 1e-9) {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 99); got < 98 || got > 100 {
		t.Fatalf("p99 = %v", got)
	}
}

// TestPercentileLeavesInputOrder: Percentile sorts a copy, so a caller
// that also sums xs in arrival order (Mean) sees the order it appended.
func TestPercentileLeavesInputOrder(t *testing.T) {
	xs := []float64{20, 10, 30, 1}
	want := append([]float64(nil), xs...)
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("input reordered: %v, want %v", xs, want)
		}
	}
}

func TestSampleEmpty(t *testing.T) {
	for _, xs := range [][]float64{nil, {}} {
		if Mean(xs) != 0 || Percentile(xs, 50) != 0 || Percentile(xs, 100) != 0 {
			t.Fatalf("empty sample %#v not zero", xs)
		}
	}
}

func TestMeanAndRMSD(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	// deviations: -1.5,-0.5,0.5,1.5 → mean square = (2.25+0.25)*2/4 = 1.25
	if !almostEqual(RMSD(xs), math.Sqrt(1.25), 1e-12) {
		t.Fatalf("rmsd = %v", RMSD(xs))
	}
	if RMSD(nil) != 0 || Mean(nil) != 0 {
		t.Fatal("nil input not zero")
	}
	if RMSD([]float64{7, 7, 7}) != 0 {
		t.Fatal("constant series RMSD != 0")
	}
}

func TestMAPE(t *testing.T) {
	got := MAPE([]float64{110, 90}, []float64{100, 100})
	if !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("mape = %v", got)
	}
	// zero-truth entries skipped
	got = MAPE([]float64{5, 110}, []float64{0, 100})
	if !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("mape with zero truth = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{-2, 1, 4})
	if !almostEqual(out[0], -0.5, 1e-12) || !almostEqual(out[2], 1, 1e-12) {
		t.Fatalf("normalize = %v", out)
	}
	zero := Normalize([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("all-zero normalize wrong")
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if !almostEqual(Correlation(a, b), 1, 1e-12) {
		t.Fatalf("perfect corr = %v", Correlation(a, b))
	}
	c := []float64{10, 8, 6, 4, 2}
	if !almostEqual(Correlation(a, c), -1, 1e-12) {
		t.Fatalf("inverse corr = %v", Correlation(a, c))
	}
	if Correlation(a, []float64{1, 1, 1, 1, 1}) != 0 {
		t.Fatal("constant corr should be 0")
	}
	if Correlation(a, []float64{1}) != 0 {
		t.Fatal("mismatched lengths should be 0")
	}
}

// Property: Summary mean/max agree with direct computation.
func TestSummaryMatchesDirectProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			clean = append(clean, x)
		}
		if len(clean) == 0 {
			return true
		}
		var s Summary
		mx := clean[0]
		for _, x := range clean {
			s.Add(x)
			mx = math.Max(mx, x)
		}
		scale := math.Max(1, math.Abs(Mean(clean)))
		return s.Max() == mx &&
			almostEqual(s.Mean(), Mean(clean), 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, p1, p2 float64) bool {
		var clean []float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			clean = append(clean, x)
		}
		if len(clean) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(clean, p1) <= Percentile(clean, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptySampleContract pins the documented empty-sample behaviour:
// every accessor returns exactly 0, never NaN.
func TestEmptySampleContract(t *testing.T) {
	var sum Summary
	for name, got := range map[string]float64{
		"N": float64(sum.N()), "Mean": sum.Mean(), "Max": sum.Max(),
	} {
		if got != 0 {
			t.Errorf("empty Summary.%s = %v, want 0", name, got)
		}
	}

	for name, got := range map[string]float64{
		"Mean": Mean(nil), "Percentile(50)": Percentile(nil, 50),
		"Percentile(NaN)": Percentile(nil, math.NaN()),
	} {
		if got != 0 || math.IsNaN(got) {
			t.Errorf("empty %s = %v, want 0", name, got)
		}
	}
}

// TestPercentileNaNClamp: a NaN percentile on a non-empty sample clamps to
// the lowest rank instead of producing garbage.
func TestPercentileNaNClamp(t *testing.T) {
	if got := Percentile([]float64{5, 1, 9}, math.NaN()); got != 1 {
		t.Errorf("Percentile(NaN) = %v, want 1 (lowest rank)", got)
	}
}

// TestRunningMeanMatchesSummary pins RunningMean and Summary's mean to
// one Welford update (d := x − mean; mean += d/n), written out here: on
// random streams of the values bus waits in µs take (zeros, whole
// nanoseconds, small fractions and long tails) every prefix's mean must
// be bit-identical across the three, so a caller that keeps only the mean
// reads exactly what a Summary would.
func TestRunningMeanMatchesSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for stream := 0; stream < 50; stream++ {
		var rm RunningMean
		var sum Summary
		var n uint64
		var mean float64
		for i := 0; i < 2000; i++ {
			var x float64
			switch rng.Intn(4) {
			case 0: // an uncontended grant
			case 1:
				x = float64(rng.Intn(100)) / 1e3
			case 2:
				x = rng.Float64() * 10
			default:
				x = rng.ExpFloat64() * 1e3
			}
			rm.Add(x)
			sum.Add(x)
			n++
			d := x - mean
			mean += d / float64(n)
			if rm.Mean() != mean || sum.Mean() != mean {
				t.Fatalf("stream %d, sample %d: RunningMean %v, Summary %v, Welford %v",
					stream, i, rm.Mean(), sum.Mean(), mean)
			}
		}
	}
}
