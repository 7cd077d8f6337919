// Command hsmlint runs the repository's determinism-contract linter
// (internal/lint) over package patterns and fails the build on findings.
// DESIGN.md §10 documents the checks and the contract clauses they guard.
//
// Usage:
//
//	go run ./cmd/hsmlint [-format text|json|github] [-checks walltime,docs,...] [pattern ...]
//
// Patterns follow the go tool's shape and are resolved against the
// working directory, exactly like the go tool: "./..." (default) lints
// everything under the current directory, "./internal/..." a subtree,
// "./internal/sim" one package. Findings print one per line as
// "file:line: [check] message"; -format=json emits a JSON array and
// -format=github emits GitHub Actions workflow annotations
// ("::error file=...,line=...::[check] message") so findings land inline
// on pull requests. The exit status is 1 when there are findings, 2 on
// usage or load errors, 0 when clean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code, so the behavior
// is testable without spawning a process.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("hsmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text, json, or github (workflow annotations)")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all of "+strings.Join(lint.Checks(), ",")+")")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(stderr, "hsmlint: unknown -format %q (text, json, or github)\n", *format)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "hsmlint:", err)
		return 2
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "hsmlint:", err)
		return 2
	}
	var selected []string
	if *checksFlag != "" {
		selected = strings.Split(*checksFlag, ",")
	}
	findings, err := lint.Run(root, dirs, selected)
	if err != nil {
		fmt.Fprintln(stderr, "hsmlint:", err)
		return 2
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "hsmlint:", err)
			return 2
		}
	case "github":
		for _, f := range findings {
			fmt.Fprintln(stdout, githubAnnotation(f))
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "hsmlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// githubAnnotation renders a finding as a GitHub Actions workflow
// command, which the runner turns into an inline PR annotation. Values
// use the Actions escaping rules: % CR LF everywhere, plus ":" and ","
// inside properties.
func githubAnnotation(f lint.Finding) string {
	return fmt.Sprintf("::error file=%s,line=%d::%s",
		githubEscapeProp(f.File), f.Line,
		githubEscapeData(fmt.Sprintf("[%s] %s", f.Check, f.Message)))
}

// githubEscapeData escapes a workflow-command message value.
func githubEscapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// githubEscapeProp escapes a workflow-command property value.
func githubEscapeProp(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod, mirroring the go tool.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expandPatterns resolves go-tool-style package patterns to sorted,
// deduplicated module-root-relative package directories.
func expandPatterns(root string, patterns []string) ([]string, error) {
	m, err := lint.LoadModule(root)
	if err != nil {
		return nil, err
	}
	all, err := m.Dirs()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		rel, recursive := patternRel(root, pat)
		if rel == "" {
			return nil, fmt.Errorf("pattern %q is outside the module at %s", pat, root)
		}
		matched := false
		for _, d := range all {
			if d == rel || (recursive && (rel == "." || strings.HasPrefix(d, rel+"/"))) {
				add(d)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

// patternRel normalizes one pattern against the module root, reporting
// whether it is recursive ("/..." suffix). An empty rel means the
// pattern escapes the module. Patterns are relative to the *working
// directory*, matching the go tool: "./..." in a subdirectory means
// that subtree, not the whole module (it used to mean the module, which
// silently over-linted when invoked from a package directory).
func patternRel(root, pat string) (rel string, recursive bool) {
	if p, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = p
		if pat == "" {
			pat = "."
		}
	}
	abs, err := filepath.Abs(pat)
	if err != nil {
		return "", recursive
	}
	r, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(r, "..") {
		return "", recursive
	}
	return filepath.ToSlash(r), recursive
}
