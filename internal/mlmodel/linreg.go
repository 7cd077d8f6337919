// Package mlmodel implements the statistical machine learning used by the
// paper's performance model (§4.4): multiple linear regression solved by
// normal equations, and a CART regression tree with RMSD-minimizing splits
// whose leaves hold linear models (a model tree). An aggregation model
// (outstanding-I/O-only, as in Pesto) is included as the ablation baseline
// the paper compares against.
package mlmodel

import (
	"fmt"
	"math"
)

// Sample is one training observation.
type Sample struct {
	Features []float64
	Target   float64
}

// Dataset is a labelled training set.
type Dataset struct {
	FeatureNames []string
	Samples      []Sample
}

// Add appends a sample; it panics on dimension mismatch.
func (d *Dataset) Add(features []float64, target float64) {
	if len(d.Samples) > 0 && len(features) != len(d.Samples[0].Features) {
		panic(fmt.Sprintf("mlmodel: feature dim %d != %d", len(features), len(d.Samples[0].Features)))
	}
	d.Samples = append(d.Samples, Sample{Features: features, Target: target})
}

// Linear is a fitted multiple linear regression y = b0 + Σ bi·xi.
type Linear struct {
	Intercept float64
	Coef      []float64
}

// Predict evaluates the model; extra features are ignored, missing ones
// treated as zero.
func (l *Linear) Predict(features []float64) float64 {
	y := l.Intercept
	for i, c := range l.Coef {
		if i < len(features) {
			y += c * features[i]
		}
	}
	return y
}

// FitLinear fits by normal equations (XᵀX)b = Xᵀy with a small ridge term
// for numerical stability. It returns an error when there are no samples
// or no features.
func FitLinear(samples []Sample) (*Linear, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("mlmodel: empty training set")
	}
	p := len(samples[0].Features)
	n := p + 1 // intercept column

	// Build XᵀX and Xᵀy.
	xtx := make([][]float64, n)
	for i := range xtx {
		xtx[i] = make([]float64, n)
	}
	xty := make([]float64, n)
	row := make([]float64, n)
	for _, s := range samples {
		row[0] = 1
		copy(row[1:], s.Features)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * s.Target
		}
	}
	// Ridge for stability (tiny relative to the diagonal scale).
	for i := 0; i < n; i++ {
		xtx[i][i] += 1e-8 * (1 + xtx[i][i])
	}
	b, err := solve(xtx, xty)
	if err != nil {
		return nil, err
	}
	return &Linear{Intercept: b[0], Coef: b[1:]}, nil
}

// solve performs Gaussian elimination with partial pivoting on a (n×n) b.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Work on copies to keep the caller's matrices intact.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	v := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("mlmodel: singular system at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		v[col], v[pivot] = v[pivot], v[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			v[r] -= f * v[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		x[i] = v[i]
		for c := i + 1; c < n; c++ {
			x[i] -= m[i][c] * x[c]
		}
		x[i] /= m[i][i]
	}
	return x, nil
}

// Aggregation is the Pesto-style model the paper ablates against: latency
// as an affine function of outstanding I/Os only (slope = 1/peak
// throughput, intercept = zero-load latency).
type Aggregation struct {
	lin        *Linear
	oioFeature int
}

// FitAggregation fits on the single feature at index oioFeature.
func FitAggregation(samples []Sample, oioFeature int) (*Aggregation, error) {
	reduced := make([]Sample, len(samples))
	for i, s := range samples {
		if oioFeature >= len(s.Features) {
			return nil, fmt.Errorf("mlmodel: OIO feature %d out of range", oioFeature)
		}
		reduced[i] = Sample{Features: []float64{s.Features[oioFeature]}, Target: s.Target}
	}
	lin, err := FitLinear(reduced)
	if err != nil {
		return nil, err
	}
	return &Aggregation{lin: lin, oioFeature: oioFeature}, nil
}

// Predict evaluates the aggregation model on a full feature vector.
func (a *Aggregation) Predict(features []float64) float64 {
	if a.oioFeature >= len(features) {
		return a.lin.Intercept
	}
	return a.lin.Predict([]float64{features[a.oioFeature]})
}
