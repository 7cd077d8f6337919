package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
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
// Recomputing all 20 cells takes about 16 s alone on a 2-vCPU VM, and
// the whole package about 40 s. need was set when the check took 77 s,
// so it leaves ample room: the check fits the default per-package
// -timeout 10m of a plain `go test ./...` after this package's other
// matrix tests; the test still skips itself when less than need of the
// deadline budget remains. CI also runs it alone with -timeout 25m.
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

// MatrixDigests pins the canonical experiment matrix's fixed-seed output:
// one SHA-256 per cell's report text, plus digests of the merged telemetry
// trace and metrics CSV from every system the matrix builds. The committed
// copy (internal/experiments/testdata/golden_digests.json) is the
// behavior-preservation contract for management-layer refactors: any
// change to decision ordering, floating-point evaluation, or telemetry
// emission shows up as a digest mismatch long before a reviewer could
// spot it in a diff.
type MatrixDigests struct {
	// Seed is the model-training seed the digests were computed under
	// (the cmd/experiments default).
	Seed uint64 `json:"seed"`
	// SampleMS is the telemetry sampling interval in simulated
	// milliseconds.
	SampleMS int `json:"sample_ms"`
	// Cells maps cell name → sha256(report text).
	Cells map[string]string `json:"cells"`
	// Trace is sha256 of the merged Chrome trace JSON.
	Trace string `json:"trace"`
	// CSV is sha256 of the merged metrics CSV.
	CSV string `json:"csv"`
}

// goldenSeed and goldenSampleMS fix the configuration the committed
// digests were produced under; they mirror the cmd/experiments defaults.
const (
	goldenSeed     = 99
	goldenSampleMS = 5
)

// ComputeMatrixDigests runs the full canonical matrix at Quick scale with
// telemetry enabled and returns its digests. A non-nil model skips the
// training pass; because training is deterministic in the seed, injecting
// a model pretrained with the same seed yields identical digests. The
// jobs value must not affect the result — that is the DESIGN.md §9
// contract this helper exists to enforce.
func ComputeMatrixDigests(jobs int, model *perfmodel.Model) (MatrixDigests, error) {
	// Tail tracking stays off (0): the committed digests predate it, and
	// keeping new exports out of the default path is what the golden
	// contract checks.
	scope := core.NewTelemetryScope(true, true, goldenSampleMS*sim.Millisecond, 0)
	sc := Quick()
	sc.Scope = scope
	sc.Jobs = jobs
	results, err := RunMatrix(MatrixOptions{
		Scale: sc,
		Seed:  goldenSeed,
		Model: model,
	})
	if err != nil {
		return MatrixDigests{}, err
	}
	d := MatrixDigests{
		Seed:     goldenSeed,
		SampleMS: goldenSampleMS,
		Cells:    make(map[string]string, len(results)),
	}
	for _, r := range results {
		if r.Err != nil {
			return MatrixDigests{}, fmt.Errorf("cell %s: %w", r.Name, r.Err)
		}
		d.Cells[r.Name] = digest([]byte(r.Text))
	}
	tel := scope.Merge()
	var tb, cb bytes.Buffer
	if err := tel.Tracer.WriteChromeTrace(&tb); err != nil {
		return MatrixDigests{}, err
	}
	if err := tel.Series.WriteCSV(&cb); err != nil {
		return MatrixDigests{}, err
	}
	d.Trace = digest(tb.Bytes())
	d.CSV = digest(cb.Bytes())
	return d, nil
}

// digest returns the lowercase hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
