// Package stats provides the small numeric toolkit shared by the device
// models, the performance model, and the experiment harness: streaming
// means, percentiles, and simple series utilities. Latency distributions
// live in telemetry.TailHist; this package keeps only running means
// (RunningMean, and Summary, which also reports the count and maximum)
// and exact small-slice statistics.
package stats

import (
	"math"
	"sort"
)

// RunningMean accumulates the mean of a stream of float64 observations
// with Welford's update and keeps nothing else. Summary keeps its count and
// mean in one, so a RunningMean fed the same stream reads Summary.Mean bit
// for bit.
type RunningMean struct {
	n    uint64
	mean float64
}

// Add records one observation.
func (m *RunningMean) Add(x float64) {
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
}

// Mean returns the running mean (0 if empty).
func (m *RunningMean) Mean() float64 { return m.mean }

// Summary accumulates a stream of float64 observations and reports their
// count, mean and maximum without retaining samples.
type Summary struct {
	m   RunningMean
	max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.m.Add(x)
	if s.m.n == 1 || x > s.max {
		s.max = x
	}
}

// Empty-sample contract: every Summary accessor, and Mean and Percentile
// over an empty slice, return exactly 0 (never NaN, never garbage) when no
// observations have been recorded. Telemetry snapshots of idle devices
// rely on this — a gauge reading an empty collector must produce a
// plottable zero.

// N returns the number of observations.
func (s *Summary) N() uint64 { return s.m.n }

// Mean returns the running mean (0 if empty).
func (s *Summary) Mean() float64 { return s.m.mean }

// Max returns the maximum observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using
// linear interpolation between closest ranks. It sorts a copy, so xs keeps
// its order. An empty slice returns exactly 0 (the empty-sample contract,
// not NaN); p outside [0,100] or NaN clamps to the nearest rank.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if math.IsNaN(p) {
		p = 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// RMSD returns the root-mean-square deviation of xs from their mean. This
// is the split criterion used by the regression tree (§4.4).
func RMSD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// MAPE returns the mean absolute percentage error between predictions and
// truth, skipping zero-truth points. Result is a fraction (0.05 == 5%).
func MAPE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: MAPE length mismatch")
	}
	sum, n := 0.0, 0
	for i := range pred {
		if truth[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-truth[i]) / math.Abs(truth[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Normalize divides every element by the maximum absolute value, returning
// a new slice; an all-zero input returns a zero slice.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	maxAbs := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / maxAbs
	}
	return out
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length series (0 if degenerate).
func Correlation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var num, da, db float64
	for i := range a {
		xa, xb := a[i]-ma, b[i]-mb
		num += xa * xb
		da += xa * xa
		db += xb * xb
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}
