package experiments

import (
	"strings"
	"testing"
)

func TestModelAblationTreeWinsOrTies(t *testing.T) {
	r, err := ModelAblation(Quick(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.HeldOut == 0 {
		t.Fatal("no held-out samples")
	}
	// The full-feature tree should beat the OIO-only aggregation model on
	// held-out error (the §4.4 justification); allow a little slack for
	// small-sample noise against the linear model.
	if r.TreeMAE > r.AggregationMAE {
		t.Fatalf("tree MAE %v should beat aggregation %v\n%s", r.TreeMAE, r.AggregationMAE, r)
	}
	if !strings.Contains(r.String(), "regression tree") {
		t.Fatal("render incomplete")
	}
}

func TestLambdaAblationShapes(t *testing.T) {
	r := LambdaAblation(Quick())
	if len(r.HitRatios) != len(r.Lambdas) {
		t.Fatal("length mismatch")
	}
	// λ→0 (LFU-like) protects the hot set best under a one-shot scan;
	// λ=1 is LRU, which a one-shot scan pollutes.
	if r.HitRatios[0] <= r.HitRatios[len(r.HitRatios)-1] {
		t.Fatalf("LFU-like λ (%v) should beat LRU-like λ (%v) under pollution\n%s",
			r.HitRatios[0], r.HitRatios[len(r.HitRatios)-1], r)
	}
	for _, h := range r.HitRatios {
		if h < 0 || h > 1 {
			t.Fatalf("hit ratio out of range: %v", h)
		}
	}
}

func TestNPBAblationBoundsStarvation(t *testing.T) {
	r := NPBAblation()
	if r.WithNPBWaitUS >= r.WithoutNPBWaitUS {
		t.Fatalf("NPB should reduce migrated wait: %v vs %v\n%s",
			r.WithNPBWaitUS, r.WithoutNPBWaitUS, r)
	}
	if r.NPBInsertions == 0 {
		t.Fatal("NPB never fired")
	}
}

func TestMirroringAblationReducesCopy(t *testing.T) {
	m := sharedModel(t)
	r, err := MirroringAblation(Quick(), m)
	if err != nil {
		t.Fatal(err)
	}
	if r.WithoutMirroring.MigrationsStarted == 0 && r.WithMirroring.MigrationsStarted == 0 {
		t.Skip("scenario triggered no migrations at quick scale")
	}
	// Mirroring should not copy more than the eager scheme.
	if r.WithMirroring.BytesCopied > r.WithoutMirroring.BytesCopied {
		t.Fatalf("mirroring copied more (%d) than eager (%d)\n%s",
			r.WithMirroring.BytesCopied, r.WithoutMirroring.BytesCopied, r)
	}
}

func TestDAXStudySpeedsSmallAccesses(t *testing.T) {
	r := DAXStudy(Quick())
	if len(r.Sizes) != 5 {
		t.Fatalf("sizes = %d", len(r.Sizes))
	}
	// Sub-page accesses should gain the most.
	if r.Speedups[0] <= 1.2 {
		t.Fatalf("256B DAX speedup = %v, want visible gain\n%s", r.Speedups[0], r)
	}
	// Gains shrink as requests approach/exceed the page size.
	if r.Speedups[len(r.Speedups)-1] > r.Speedups[0] {
		t.Fatalf("16KB speedup (%v) should not exceed 256B speedup (%v)\n%s",
			r.Speedups[len(r.Speedups)-1], r.Speedups[0], r)
	}
}

func TestPlacementStudyRecordsDecisionInputs(t *testing.T) {
	m := sharedModel(t)
	r, err := PlacementStudy(Quick(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BASILChoices) != 8 || len(r.BCAChoices) != 8 {
		t.Fatalf("trials = %d/%d", len(r.BASILChoices), len(r.BCAChoices))
	}
	if len(r.MeasuredNVDIMMUS) != 8 || len(r.PredictedNVDIMMUS) != 8 {
		t.Fatalf("decision inputs = %d/%d", len(r.MeasuredNVDIMMUS), len(r.PredictedNVDIMMUS))
	}
	// The Fig. 3 signal: in at least some interference windows, the
	// measured NVDIMM latency sits visibly above the model's
	// contention-free prediction — the inflation that misleads
	// measured-latency placement.
	inflated := 0
	for i := range r.MeasuredNVDIMMUS {
		if r.MeasuredNVDIMMUS[i] > r.PredictedNVDIMMUS[i]*1.1 {
			inflated++
		}
	}
	if inflated == 0 {
		t.Fatalf("no interference inflation visible in decision inputs:\n%s", r)
	}
	// Every trial must land on a real device (never the idle HDD).
	for _, c := range append(append([]string{}, r.BASILChoices...), r.BCAChoices...) {
		if c == "HDD" {
			t.Fatalf("placement chose the idle HDD:\n%s", r)
		}
	}
}
