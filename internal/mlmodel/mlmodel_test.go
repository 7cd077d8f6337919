package mlmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestFitLinearExact(t *testing.T) {
	// y = 3 + 2a - b
	var samples []Sample
	for a := 0.0; a < 5; a++ {
		for b := 0.0; b < 5; b++ {
			samples = append(samples, Sample{Features: []float64{a, b}, Target: 3 + 2*a - b})
		}
	}
	lin, err := FitLinear(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lin.Intercept-3) > 1e-5 || math.Abs(lin.Coef[0]-2) > 1e-5 || math.Abs(lin.Coef[1]+1) > 1e-5 {
		t.Fatalf("fit = %+v", lin)
	}
	if got := lin.Predict([]float64{10, 4}); math.Abs(got-19) > 1e-4 {
		t.Fatalf("predict = %v, want 19", got)
	}
}

func TestFitLinearEmpty(t *testing.T) {
	if _, err := FitLinear(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
}

func TestLinearPredictShortFeatures(t *testing.T) {
	lin := &Linear{Intercept: 1, Coef: []float64{2, 3}}
	if got := lin.Predict([]float64{5}); got != 11 {
		t.Fatalf("short-feature predict = %v", got)
	}
	if got := lin.Predict(nil); got != 1 {
		t.Fatalf("nil-feature predict = %v", got)
	}
}

func TestDatasetAddMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var ds Dataset
	ds.Add([]float64{1, 2}, 3)
	ds.Add([]float64{1}, 3)
}

func TestAggregationModelIgnoresOtherFeatures(t *testing.T) {
	// Latency depends on OIO (feature 1) and randomness (feature 0); the
	// aggregation model captures only OIO.
	var samples []Sample
	for oio := 1.0; oio <= 8; oio++ {
		for rnd := 0.0; rnd <= 1; rnd += 0.5 {
			samples = append(samples, Sample{Features: []float64{rnd, oio}, Target: 10*oio + 100*rnd})
		}
	}
	agg, err := FitAggregation(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction must not vary with randomness.
	a := agg.Predict([]float64{0, 4})
	b := agg.Predict([]float64{1, 4})
	if a != b {
		t.Fatalf("aggregation model varied with non-OIO feature: %v vs %v", a, b)
	}
	// But it tracks OIO.
	if agg.Predict([]float64{0, 8}) <= agg.Predict([]float64{0, 1}) {
		t.Fatal("aggregation model missed the OIO trend")
	}
}

func TestFitAggregationBadFeature(t *testing.T) {
	if _, err := FitAggregation([]Sample{{Features: []float64{1}, Target: 1}}, 5); err == nil {
		t.Fatal("out-of-range feature accepted")
	}
}

// table3Samples reproduces the paper's Table 3 training samples:
// (wr_ratio, IOS_KB, free_space_ratio) → latency µs.
func table3Samples() Dataset {
	ds := Dataset{FeatureNames: []string{"wr_ratio", "IOS", "free_space_ratio"}}
	rows := [][4]float64{
		{0.25, 4, 0.10, 65},
		{0.25, 8, 0.60, 40},
		{0.50, 4, 0.60, 42},
		{0.50, 8, 0.10, 85},
		{0.75, 4, 0.60, 32},
		{0.75, 8, 0.10, 80},
	}
	for _, r := range rows {
		ds.Add([]float64{r[0], r[1], r[2]}, r[3])
	}
	return ds
}

func TestTable3TreeSplitsOnFreeSpaceFirst(t *testing.T) {
	// Fig. 6: free_space_ratio yields the lowest leaf RMSD and is chosen
	// as the root split.
	ds := table3Samples()
	tree, err := Train(ds, TreeConfig{MaxDepth: 3, MinLeafSamples: 1, LinearLeaves: false})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.RootSplitFeature(); got != 2 {
		t.Fatalf("root split on feature %d (%s), want 2 (free_space_ratio)\n%s",
			got, ds.FeatureNames[got], tree)
	}
	// Low free space groups the high latencies (65, 85, 80).
	high := tree.Predict([]float64{0.5, 6, 0.10})
	low := tree.Predict([]float64{0.5, 6, 0.60})
	if high <= low {
		t.Fatalf("low-free-space latency (%v) should exceed high (%v)", high, low)
	}
	if !strings.Contains(tree.String(), "free_space_ratio") {
		t.Fatalf("rendered tree missing feature name:\n%s", tree)
	}
}

func TestTreeFitsPiecewiseFunction(t *testing.T) {
	// y = 10 for x<0.5, 50 for x>=0.5, plus linear trend in second feature.
	var ds Dataset
	ds.FeatureNames = []string{"x", "z"}
	rng := sim.NewRNG(11)
	for i := 0; i < 400; i++ {
		x := rng.Float64()
		z := rng.Float64() * 10
		y := 10.0
		if x >= 0.5 {
			y = 50
		}
		y += 2 * z
		ds.Add([]float64{x, z}, y)
	}
	tree, err := Train(ds, DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ x, z, want float64 }{
		{0.2, 5, 20}, {0.8, 5, 60}, {0.2, 0, 10}, {0.9, 9, 68},
	} {
		got := tree.Predict([]float64{c.x, c.z})
		if math.Abs(got-c.want) > 5 {
			t.Fatalf("predict(%v,%v) = %v, want ~%v", c.x, c.z, got, c.want)
		}
	}
	if leaves(tree.root) < 2 {
		t.Fatal("tree failed to split")
	}
	if depth(tree.root) < 1 {
		t.Fatal("tree depth = 0 despite structure in data")
	}
}

func TestLinearLeavesBeatConstantLeaves(t *testing.T) {
	// Smooth linear target: model tree should fit far better at equal
	// depth.
	var ds Dataset
	rng := sim.NewRNG(13)
	for i := 0; i < 300; i++ {
		x := rng.Float64() * 100
		ds.Add([]float64{x}, 3*x+7)
	}
	cfgConst := TreeConfig{MaxDepth: 2, MinLeafSamples: 4, LinearLeaves: false}
	cfgLin := TreeConfig{MaxDepth: 2, MinLeafSamples: 4, LinearLeaves: true}
	constTree, _ := Train(ds, cfgConst)
	linTree, _ := Train(ds, cfgLin)
	var errConst, errLin float64
	for x := 5.0; x < 100; x += 10 {
		truth := 3*x + 7
		errConst += math.Abs(constTree.Predict([]float64{x}) - truth)
		errLin += math.Abs(linTree.Predict([]float64{x}) - truth)
	}
	if errLin >= errConst {
		t.Fatalf("linear leaves (%v) should beat constant leaves (%v)", errLin, errConst)
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	if _, err := Train(Dataset{}, DefaultTreeConfig()); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestSingleLeafTree(t *testing.T) {
	var ds Dataset
	for i := 0; i < 10; i++ {
		ds.Add([]float64{1}, 42)
	}
	tree, err := Train(ds, DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if leaves(tree.root) != 1 || depth(tree.root) != 0 {
		t.Fatalf("constant data: leaves=%d depth=%d", leaves(tree.root), depth(tree.root))
	}
	if tree.RootSplitFeature() != -1 {
		t.Fatal("single leaf should report no root split")
	}
	if got := tree.Predict([]float64{99}); got != 42 {
		t.Fatalf("predict = %v", got)
	}
}

func TestMinLeafSamplesRespected(t *testing.T) {
	var ds Dataset
	rng := sim.NewRNG(17)
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		ds.Add([]float64{x}, x*100)
	}
	tree, err := Train(ds, TreeConfig{MaxDepth: 20, MinLeafSamples: 30, LinearLeaves: false})
	if err != nil {
		t.Fatal(err)
	}
	// 100 samples with min 30 per leaf allows at most 3 leaves.
	if leaves(tree.root) > 3 {
		t.Fatalf("leaves = %d violates MinLeafSamples", leaves(tree.root))
	}
}

// Property: tree predictions lie within [min, max] of training targets for
// constant-leaf trees.
func TestTreePredictionBoundsProperty(t *testing.T) {
	f := func(raw []float64, qx float64) bool {
		var ds Dataset
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			y := math.Mod(v, 1000)
			ds.Add([]float64{float64(i % 7)}, y)
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		if len(ds.Samples) == 0 {
			return true
		}
		tree, err := Train(ds, TreeConfig{LinearLeaves: false, MinLeafSamples: 1})
		if err != nil {
			return false
		}
		p := tree.Predict([]float64{math.Mod(math.Abs(qx), 7)})
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureImportance(t *testing.T) {
	// Target depends only on feature 0; importance should concentrate
	// there.
	var ds Dataset
	rng := sim.NewRNG(23)
	for i := 0; i < 300; i++ {
		x := rng.Float64()
		noise := rng.Float64() // irrelevant feature
		y := 10.0
		if x > 0.5 {
			y = 100
		}
		ds.Add([]float64{x, noise}, y)
	}
	tree, err := Train(ds, DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	imp := tree.FeatureImportance(2)
	if imp[0] < 0.8 {
		t.Fatalf("feature 0 importance = %v, want dominant (noise got %v)", imp[0], imp[1])
	}
	sum := imp[0] + imp[1]
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("importances sum to %v, want 1", sum)
	}
}

func TestFeatureImportanceSingleLeaf(t *testing.T) {
	var ds Dataset
	for i := 0; i < 10; i++ {
		ds.Add([]float64{1}, 5)
	}
	tree, _ := Train(ds, DefaultTreeConfig())
	imp := tree.FeatureImportance(1)
	if imp[0] != 0 {
		t.Fatalf("no-split tree importance = %v, want 0", imp[0])
	}
}

func TestTable3ImportanceFavorsFreeSpace(t *testing.T) {
	ds := table3Samples()
	tree, err := Train(ds, TreeConfig{MaxDepth: 3, MinLeafSamples: 1, LinearLeaves: false})
	if err != nil {
		t.Fatal(err)
	}
	imp := tree.FeatureImportance(3)
	// free_space_ratio (index 2) carries the root split — the biggest
	// RMSD reduction in the Fig. 6 example.
	if imp[2] < imp[0] || imp[2] < imp[1] {
		t.Fatalf("free_space_ratio importance %v should dominate: %v", imp[2], imp)
	}
}

// leaves counts the leaf nodes under n.
func leaves(n *node) int {
	if n.leaf {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}

// depth returns the depth of the subtree at n (a single leaf has depth 0).
func depth(n *node) int {
	if n.leaf {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}
