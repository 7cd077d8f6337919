// Package lint implements hsmlint, the repository's determinism-contract
// linter. DESIGN.md §9 writes the contract down in prose — seed-isolated
// RNG trees, no wall clock in simulated paths, index-ordered telemetry
// merges, unsynchronized-by-design sink ownership — and this package turns
// each clause into a mechanical check over the module's syntax trees and
// type information, so a violation fails CI instead of surfacing as a
// probabilistic byte-identity diff three PRs later.
//
// Ten checks (DESIGN.md §10 maps each to the contract clause it
// guards). Six are intraprocedural, inspecting one package at a time:
//
//   - walltime: forbids time.Now/Since/Sleep/After (and friends) inside
//     internal/ simulation packages; simulated artifacts must be stamped
//     with sim.Time from the owning sim.Engine.
//   - globalrand: forbids math/rand (and math/rand/v2) top-level
//     functions everywhere, and rand.New-style constructors outside
//     internal/sim's seed tree and internal/faultinject's RNG fork.
//   - maporder: flags ranging over a map when the loop body writes to an
//     io.Writer/fmt printer, feeds telemetry, or appends to a slice that
//     is never sorted afterwards — the map-iteration nondeterminism that
//     byte-identity tests only catch probabilistically.
//   - floatorder: flags floating-point accumulation inside a map range —
//     float addition is not associative, so the sum depends on iteration
//     order even with no output sink in the loop (the case maporder
//     cannot see).
//   - goroutineownership: flags go statements outside internal/runpool
//     that capture or receive telemetry sinks (telemetry.Registry,
//     Sampler, Tracer, Series, core.TelemetryScope) — those types are
//     unsynchronized by design and owned by exactly one goroutine.
//   - docs: every package carries a package doc comment, and the
//     contract-critical packages (internal/runpool, internal/lint,
//     internal/telemetry, ...) document every exported symbol.
//
// Four are interprocedural, built on a module-wide static call graph
// (callgraph.go: CHA resolution of interface calls, function-value
// references counted as edges) or on declaration directives
// (guard.go):
//
//   - walltimereach: flags internal/ functions whose call *transitively*
//     reaches a wall-clock read through a helper outside internal/
//     (cmd/, examples/, the root facade) — the laundering path the leaf
//     walltime check deliberately does not look at.
//   - indexsync: struct fields annotated //lint:guarded-by <func>[,...]
//     (e.g. the extent allocator's water-marks) may only be written by
//     the declared canonical helpers.
//   - journalfence: on call paths reachable from a //lint:ack-path
//     function (application-write ack/completion entry points), journal
//     records must be appended through Journal.AppendIfEpoch; raw
//     append-family calls there are findings.
//   - unreachable: flags internal/ functions and methods that no entry
//     point reaches — no main under cmd/, examples/ or perfbench/, no
//     init, no root-package export, no package-level initializer and no
//     stdlib interface the module's types implement. Test seams say so
//     with a //lint:ignore unreachable directive naming their test.
//
// A finding can be suppressed with a mandatory-reason directive placed on
// the offending line or the line above it:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// Malformed directives (missing reason, unknown check name, a malformed
// or misplaced guarded-by/ack-path declaration) are findings themselves,
// under the pseudo-check "directive", and cannot be suppressed. The
// suite is stdlib-only (go/ast, go/parser, go/types with the source
// importer), matching the module's no-external-deps rule.
package lint

import (
	"fmt"
	"sort"
)

// Finding is one rule violation at a source position. File is
// slash-separated and relative to the linted module root, so renderings
// are byte-identical regardless of where the tool runs.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the finding in the canonical "file:line: [check] message"
// form emitted by cmd/hsmlint and compared by the golden fixture tests.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Message)
}

// DirectiveCheck is the pseudo-check name under which malformed
// //lint:ignore directives are reported. It is not a valid target for
// suppression: a broken directive cannot excuse itself.
const DirectiveCheck = "directive"

// checkFunc inspects one loaded package and returns its raw findings
// (before suppression directives are applied).
type checkFunc func(m *Module, p *Package) []Finding

// checks is the registry of real (suppressible) checks, in report order.
var checks = []struct {
	name string
	run  checkFunc
}{
	{"walltime", checkWalltime},
	{"walltimereach", checkWallTimeReach},
	{"globalrand", checkGlobalRand},
	{"maporder", checkMapOrder},
	{"floatorder", checkFloatOrder},
	{"goroutineownership", checkGoroutineOwnership},
	{"indexsync", checkIndexSync},
	{"journalfence", checkJournalFence},
	{"docs", checkDocs},
	{"unreachable", checkUnreachable},
}

// graphChecks names the checks that need the module-wide call graph.
// Run builds it up front for them (loading every module package) so a
// graph build error surfaces as an error, not as silently-empty
// reachability.
var graphChecks = map[string]bool{
	"walltimereach": true,
	"journalfence":  true,
	"unreachable":   true,
}

// Checks returns the names of all suppressible checks, in report order.
// The "directive" pseudo-check is excluded: it is always on and cannot be
// selected or suppressed.
func Checks() []string {
	out := make([]string, len(checks))
	for i, c := range checks {
		out[i] = c.name
	}
	return out
}

// KnownCheck reports whether name is a suppressible check name — the set
// accepted by //lint:ignore directives and the -checks flag.
func KnownCheck(name string) bool {
	for _, c := range checks {
		if c.name == name {
			return true
		}
	}
	return false
}

// Run loads the module rooted at root, analyzes the packages in the given
// root-relative directories ("." for the root package), runs the selected
// checks (nil or empty selects all), applies //lint:ignore suppressions,
// and returns the surviving findings sorted by file, line, check, and
// message. Type errors in the analyzed code do not abort the run: checks
// operate on whatever type information resolves, which keeps the linter
// usable mid-refactor.
func Run(root string, dirs []string, selected []string) ([]Finding, error) {
	m, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(selected))
	for _, name := range selected {
		if !KnownCheck(name) {
			return nil, fmt.Errorf("unknown check %q (known: %v)", name, Checks())
		}
		want[name] = true
	}
	needGraph := false
	for _, c := range checks {
		if graphChecks[c.name] && (len(want) == 0 || want[c.name]) {
			needGraph = true
		}
	}
	if needGraph {
		if _, err := m.graph(); err != nil {
			return nil, fmt.Errorf("call graph: %w", err)
		}
	}
	var all []Finding
	for _, dir := range dirs {
		p, err := m.Load(dir)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", dir, err)
		}
		dirs := collectDirectives(m, p)
		// Malformed directives are findings in every run, regardless of
		// which checks were selected: a broken suppression is a lint bug
		// even when the check it meant to silence is off. The same rule
		// covers malformed or misplaced declaration directives
		// (//lint:guarded-by, //lint:ack-path).
		for _, d := range dirs {
			if d.Err != "" {
				all = append(all, Finding{File: d.File, Line: d.Line, Check: DirectiveCheck, Message: d.Err})
			}
		}
		for _, d := range collectDeclDirectives(m, p) {
			if d.Err != "" {
				all = append(all, Finding{File: d.File, Line: d.Line, Check: DirectiveCheck, Message: d.Err})
			}
		}
		for _, c := range checks {
			if len(want) > 0 && !want[c.name] {
				continue
			}
			for _, f := range c.run(m, p) {
				if !suppressed(f, dirs) {
					all = append(all, f)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return all, nil
}
