package lint

import (
	"flag"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the expected-findings files from the current linter
// output: go test ./internal/lint -run TestFixtures -update
var update = flag.Bool("update", false, "rewrite testdata expect.txt files")

// fixtureRoot is the self-contained module of golden fixture packages.
const fixtureRoot = "testdata/src"

// TestFixtures runs the full suite over the fixture module and compares
// the findings of every package against its expect.txt (absent file =
// package must be clean). Each seeded violation is asserted by exact
// file:line, check name, and message.
func TestFixtures(t *testing.T) {
	m, err := LoadModule(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := m.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no fixture packages found")
	}
	findings, err := Run(fixtureRoot, dirs, nil)
	if err != nil {
		t.Fatal(err)
	}
	perDir := make(map[string][]string)
	for _, f := range findings {
		d := path.Dir(f.File)
		perDir[d] = append(perDir[d], f.String())
	}
	for _, dir := range dirs {
		got := strings.Join(perDir[dir], "\n")
		if got != "" {
			got += "\n"
		}
		expectPath := filepath.Join(fixtureRoot, filepath.FromSlash(dir), "expect.txt")
		if *update {
			if got == "" {
				os.Remove(expectPath)
				continue
			}
			if err := os.WriteFile(expectPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var want string
		if data, err := os.ReadFile(expectPath); err == nil {
			want = string(data)
		}
		if got != want {
			t.Errorf("%s: findings mismatch\n--- want\n%s--- got\n%s", dir, want, got)
		}
	}
}

// TestFixtureChecksAttribution asserts the acceptance-criteria framing
// directly: every seeded violation is reported by exactly the check its
// fixture package is named for, and the clean packages stay clean.
func TestFixtureChecksAttribution(t *testing.T) {
	m, err := LoadModule(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := m.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(fixtureRoot, dirs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fixture layout rule: package internal/<name> seeds findings only
	// for the checks it is named for (plus directive findings where the
	// fixture seeds malformed suppressions). Most dirs exercise one
	// check; internal/timerapi deliberately seeds two — engine-sink
	// ownership violations and a missing package doc.
	wantCheck := map[string][]string{
		"internal/walltime":      {"walltime"},
		"internal/wallreach":     {"walltimereach"},
		"internal/randbad":       {"globalrand"},
		"internal/maporder":      {"maporder"},
		"internal/floatorder":    {"floatorder"},
		"internal/goroutine":     {"goroutineownership"},
		"internal/timerapi":      {"goroutineownership", "docs"},
		"internal/indexsync":     {"indexsync"},
		"internal/journalfence":  {"journalfence"},
		"internal/newdirectives": {DirectiveCheck},
		"internal/nodoc":         {"docs"},
		"internal/runpool":       {"docs"},
		"internal/mgmt/policy":   {"docs"},
		"internal/mgmt/slo":      {"docs"},
		"internal/invariant":     {"docs"},
		"internal/chaos":         {"docs"},
		"internal/unreachable":   {"unreachable"},
	}
	mustBeClean := map[string]bool{
		"internal/sim": true, "internal/faultinject": true,
		"internal/telemetry": true, "internal/core": true,
		"cmd/clock": true, "cmd/progress": true, "cmd/fixtures": true, ".": true,
	}
	seen := make(map[string]bool)
	for _, f := range findings {
		d := path.Dir(f.File)
		seen[d+"/"+f.Check] = true
		if mustBeClean[d] {
			t.Errorf("%s must be clean, got %s", d, f)
			continue
		}
		if want, ok := wantCheck[d]; ok && f.Check != DirectiveCheck {
			allowed := false
			for _, w := range want {
				if f.Check == w {
					allowed = true
					break
				}
			}
			if !allowed {
				t.Errorf("%s: finding attributed to %q, fixture seeds only %v: %s", d, f.Check, want, f)
			}
		}
	}
	for d, want := range wantCheck {
		for _, w := range want {
			if !seen[d+"/"+w] {
				t.Errorf("%s: expected at least one %q finding, got none", d, w)
			}
		}
	}
	if !seen["internal/walltime/"+DirectiveCheck] || !seen["internal/directives/"+DirectiveCheck] {
		t.Error("expected directive findings from the malformed suppressions in internal/walltime and internal/directives")
	}
}

// TestFixtureSuppressionInterplay pins the directive-interplay fixture:
// internal/newdirectives violates every interprocedural check and
// suppresses each with //lint:ignore (including one multi-check
// directive covering indexsync and journalfence on a single line), so
// only its three seeded malformed/misplaced declaration directives may
// surface — all under the unsuppressible "directive" pseudo-check.
func TestFixtureSuppressionInterplay(t *testing.T) {
	findings, err := Run(fixtureRoot, []string{"internal/newdirectives"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("want exactly 3 directive findings, got %d: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Check != DirectiveCheck {
			t.Errorf("suppression failed: %s", f)
		}
	}
}

// TestRunSelectedChecks verifies -checks subsetting: selecting only docs
// must drop the walltime/globalrand/... findings but keep malformed
// directives, which are findings in every run.
func TestRunSelectedChecks(t *testing.T) {
	m, err := LoadModule(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := m.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(fixtureRoot, dirs, []string{"docs"})
	if err != nil {
		t.Fatal(err)
	}
	var docs, directive, other int
	for _, f := range findings {
		switch f.Check {
		case "docs":
			docs++
		case DirectiveCheck:
			directive++
		default:
			other++
		}
	}
	if docs == 0 || directive == 0 || other != 0 {
		t.Errorf("want only docs+directive findings, got docs=%d directive=%d other=%d", docs, directive, other)
	}
}

// TestRunUnknownCheck verifies the -checks flag rejects unknown names.
func TestRunUnknownCheck(t *testing.T) {
	if _, err := Run(fixtureRoot, []string{"internal/sim"}, []string{"nosuch"}); err == nil {
		t.Fatal("want error for unknown check name")
	}
}
