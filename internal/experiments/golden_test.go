package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.json from the current build")

const goldenPath = "testdata/golden_digests.json"

// TestPipelineGoldenEquivalence recomputes the fixed-seed digests of all
// canonical matrix cells (report text, merged trace, merged metrics CSV)
// and compares them against the committed goldens. The goldens were
// captured before the management layer was decomposed into the policy
// pipeline; this test is the proof that the refactor — and every future
// policy-layer change that claims to be behavior-preserving — leaves the
// fixed-seed artifacts byte-identical. Regenerate deliberately with
//
//	go test ./internal/experiments -run TestPipelineGoldenEquivalence -update-golden
//
// and justify the diff in the commit message.
//
// Recomputing all 20 cells takes 77 s alone on a 2-vCPU VM. need is
// about twice that, so the check fits the default per-package -timeout
// 10m of a plain `go test ./...` after this package's other matrix tests;
// the test still skips itself when less than need of the deadline budget
// remains. CI also runs it alone with -timeout 25m.
func TestPipelineGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix golden check skipped in -short mode")
	}
	const need = 3 * time.Minute
	if dl, ok := t.Deadline(); ok {
		if rem := time.Until(dl); rem < need {
			t.Skipf("full-matrix golden check needs up to %s but only %s of -timeout budget remains; run alone with -timeout 25m",
				need, rem.Round(time.Second))
		}
	}
	got, err := ComputeMatrixDigests(0, sharedModel(t))
	if err != nil {
		t.Fatal(err)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing goldens (run with -update-golden to create): %v", err)
	}
	var want MatrixDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	if got.Seed != want.Seed || got.SampleMS != want.SampleMS {
		t.Fatalf("golden config drifted: got seed=%d sample=%dms, want seed=%d sample=%dms",
			got.Seed, got.SampleMS, want.Seed, want.SampleMS)
	}
	for _, name := range MatrixNames() {
		w, ok := want.Cells[name]
		if !ok {
			t.Errorf("cell %s: no committed digest (regenerate goldens)", name)
			continue
		}
		if g := got.Cells[name]; g != w {
			t.Errorf("cell %s: report digest %s, want %s (fixed-seed output changed)", name, g, w)
		}
	}
	if len(want.Cells) != len(got.Cells) {
		t.Errorf("digest count %d, want %d", len(got.Cells), len(want.Cells))
	}
	if got.Trace != want.Trace {
		t.Errorf("merged trace digest %s, want %s (telemetry emission changed)", got.Trace, want.Trace)
	}
	if got.CSV != want.CSV {
		t.Errorf("merged metrics CSV digest %s, want %s (sampled metrics changed)", got.CSV, want.CSV)
	}
}
