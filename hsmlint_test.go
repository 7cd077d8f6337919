// Lint gate: these tests run the determinism-contract linter
// (internal/lint, DESIGN.md §10) over the whole module, so `go test .`
// fails on the same findings `go run ./cmd/hsmlint ./...` would report
// in CI. They replace the old standalone doc-lint tests: the docs rules
// now have exactly one implementation, in internal/lint.
package repro

import (
	"reflect"
	"testing"

	"repro/internal/lint"
)

// lintModule runs the selected checks over every package of the module.
func lintModule(t *testing.T, checks []string) []lint.Finding {
	t.Helper()
	m, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := m.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(".", dirs, checks)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestDocLint is the thin successor of the original doc-lint tests: it
// invokes only the docs check (package doc comments everywhere;
// exported-symbol docs in the contract-critical packages).
func TestDocLint(t *testing.T) {
	for _, f := range lintModule(t, []string{"docs"}) {
		t.Error(f)
	}
}

// TestLintClean holds the repository to the full determinism contract:
// every check of the suite, zero findings, matching the CI lint job.
func TestLintClean(t *testing.T) {
	for _, f := range lintModule(t, nil) {
		t.Error(f)
	}
}

// TestLintSuiteRegistry pins the expanded hsmlint v2 suite: all ten
// checks, in registry order, on by default. A check silently dropped
// from the registry would leave TestLintClean green while the gate it
// provided disappears — this test turns that into a failure.
func TestLintSuiteRegistry(t *testing.T) {
	want := []string{
		"walltime", "walltimereach", "globalrand", "maporder",
		"floatorder", "goroutineownership", "indexsync", "journalfence",
		"docs", "unreachable",
	}
	if got := lint.Checks(); !reflect.DeepEqual(got, want) {
		t.Errorf("lint.Checks() = %v, want %v", got, want)
	}
}
