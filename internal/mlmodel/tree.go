package mlmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Split search limits.
const (
	// minRMSDGain is the minimum relative RMSD improvement a split must
	// achieve.
	minRMSDGain = 1e-3
	// maxSplitCandidates caps thresholds evaluated per feature (quantile
	// thinning for large training sets).
	maxSplitCandidates = 32
)

// TreeConfig controls regression-tree construction (§4.4).
type TreeConfig struct {
	// MaxDepth bounds tree depth (default 8).
	MaxDepth int
	// MinLeafSamples is the minimum samples per leaf (default 4).
	MinLeafSamples int
	// LinearLeaves fits a multiple linear regression at each leaf (a
	// model tree, the paper's tree + linear-regression combination);
	// false uses constant-mean leaves (plain CART).
	LinearLeaves bool
}

// DefaultTreeConfig returns the configuration used by the performance
// model.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 8, MinLeafSamples: 4, LinearLeaves: true}
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeafSamples <= 0 {
		c.MinLeafSamples = 4
	}
	return c
}

// node is one tree node.
type node struct {
	// Internal nodes.
	feature   int
	threshold float64
	left      *node
	right     *node
	// Leaves.
	leaf  bool
	mean  float64
	model *Linear // nil for constant leaves
	n     int
	rmsd  float64
}

// Tree is a fitted regression tree.
type Tree struct {
	root  *node
	cfg   TreeConfig
	names []string
}

// Train fits a regression tree on the dataset. It returns an error for an
// empty dataset.
func Train(ds Dataset, cfg TreeConfig) (*Tree, error) {
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("mlmodel: empty dataset")
	}
	cfg = cfg.withDefaults()
	t := &Tree{cfg: cfg, names: ds.FeatureNames}
	t.root = t.build(ds.Samples, 0)
	return t, nil
}

// build recursively grows the tree.
func (t *Tree) build(samples []Sample, depth int) *node {
	targets := make([]float64, len(samples))
	for i, s := range samples {
		targets[i] = s.Target
	}
	cur := stats.RMSD(targets)

	if depth >= t.cfg.MaxDepth || len(samples) < 2*t.cfg.MinLeafSamples || cur == 0 {
		return t.makeLeaf(samples, targets, cur)
	}
	feature, threshold, gain := t.bestSplit(samples, cur)
	if feature < 0 || gain < minRMSDGain*cur {
		return t.makeLeaf(samples, targets, cur)
	}
	var left, right []Sample
	for _, s := range samples {
		if s.Features[feature] <= threshold {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	if len(left) < t.cfg.MinLeafSamples || len(right) < t.cfg.MinLeafSamples {
		return t.makeLeaf(samples, targets, cur)
	}
	return &node{
		feature:   feature,
		threshold: threshold,
		left:      t.build(left, depth+1),
		right:     t.build(right, depth+1),
		n:         len(samples),
		rmsd:      cur,
	}
}

// makeLeaf builds a leaf with a constant or linear model.
func (t *Tree) makeLeaf(samples []Sample, targets []float64, rmsd float64) *node {
	n := &node{leaf: true, mean: stats.Mean(targets), n: len(samples), rmsd: rmsd}
	if t.cfg.LinearLeaves && len(samples) > len(samples[0].Features)+1 && rmsd > 0 {
		if lin, err := FitLinear(samples); err == nil {
			// Keep the linear model only if it actually fits the leaf
			// better than the constant mean; degenerate (collinear)
			// features otherwise produce wild extrapolation.
			var sse float64
			for _, s := range samples {
				d := lin.Predict(s.Features) - s.Target
				sse += d * d
			}
			linRMSD := math.Sqrt(sse / float64(len(samples)))
			if linRMSD < rmsd {
				n.model = lin
			}
		}
	}
	return n
}

// bestSplit finds the (feature, threshold) minimizing weighted child RMSD.
// gain is parentRMSD − weightedChildRMSD.
func (t *Tree) bestSplit(samples []Sample, parentRMSD float64) (feature int, threshold, gain float64) {
	feature = -1
	bestScore := parentRMSD
	nf := len(samples[0].Features)
	values := make([]float64, 0, len(samples))
	for f := 0; f < nf; f++ {
		values = values[:0]
		for _, s := range samples {
			values = append(values, s.Features[f])
		}
		sort.Float64s(values)
		// Candidate thresholds: midpoints of distinct neighbours, thinned
		// to maxSplitCandidates quantiles.
		step := 1
		if len(values) > maxSplitCandidates {
			step = len(values) / maxSplitCandidates
		}
		for i := step; i < len(values); i += step {
			if values[i] == values[i-1] {
				continue
			}
			thr := (values[i] + values[i-1]) / 2
			score := t.splitScore(samples, f, thr)
			if score < bestScore {
				bestScore = score
				feature = f
				threshold = thr
			}
		}
	}
	return feature, threshold, parentRMSD - bestScore
}

// splitScore returns the sample-weighted RMSD of the two children.
func (t *Tree) splitScore(samples []Sample, f int, thr float64) float64 {
	var left, right []float64
	for _, s := range samples {
		if s.Features[f] <= thr {
			left = append(left, s.Target)
		} else {
			right = append(right, s.Target)
		}
	}
	if len(left) < t.cfg.MinLeafSamples || len(right) < t.cfg.MinLeafSamples {
		return stats.RMSD(append(left, right...)) + 1 // disqualify
	}
	nl, nr := float64(len(left)), float64(len(right))
	return (stats.RMSD(left)*nl + stats.RMSD(right)*nr) / (nl + nr)
}

// Predict evaluates the tree on a feature vector.
func (t *Tree) Predict(features []float64) float64 {
	n := t.root
	for !n.leaf {
		if features[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n.model != nil {
		return n.model.Predict(features)
	}
	return n.mean
}

// RootSplitFeature returns the feature index chosen at the root, or -1 for
// a single-leaf tree. Used by the Fig. 6 reproduction to show which
// variable gives the best first split.
func (t *Tree) RootSplitFeature() int {
	if t.root.leaf {
		return -1
	}
	return t.root.feature
}

// String renders the tree structure (Fig. 6 style).
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, t.root, 0)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, n *node, indent int) {
	pad := strings.Repeat("  ", indent)
	if n.leaf {
		fmt.Fprintf(b, "%sleaf n=%d mean=%.2f rmsd=%.2f\n", pad, n.n, n.mean, n.rmsd)
		return
	}
	name := fmt.Sprintf("f%d", n.feature)
	if n.feature < len(t.names) {
		name = t.names[n.feature]
	}
	fmt.Fprintf(b, "%s%s <= %.3f (n=%d rmsd=%.2f)\n", pad, name, n.threshold, n.n, n.rmsd)
	t.render(b, n.left, indent+1)
	t.render(b, n.right, indent+1)
}

// FeatureImportance returns, per feature index, the total RMSD reduction
// attributable to splits on that feature, normalized to sum to 1 (0s if
// the tree never split). It quantifies which workload characteristics
// drive predictions — the same question Fig. 6 answers by inspection.
func (t *Tree) FeatureImportance(numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			return
		}
		childRMSD := (n.left.rmsd*float64(n.left.n) + n.right.rmsd*float64(n.right.n)) /
			float64(n.left.n+n.right.n)
		gain := (n.rmsd - childRMSD) * float64(n.n)
		if gain > 0 && n.feature < numFeatures {
			imp[n.feature] += gain
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}
