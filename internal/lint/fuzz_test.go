package lint

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParseIgnoreDirective is the grammar smoke test: for arbitrary
// comment text the parser must never panic, and its three-way outcome
// (not-a-directive / malformed / valid) must satisfy the grammar's
// invariants — valid directives name only known checks and always carry
// a reason.
func FuzzParseIgnoreDirective(f *testing.F) {
	f.Add("//lint:ignore walltime stderr timing only")
	f.Add("//lint:ignore walltime,globalrand shared reason")
	f.Add("//lint:ignore unreachable pkg TestSeam needs it")
	f.Add("//lint:ignore")
	f.Add("//lint:ignore walltime")
	f.Add("//lint:ignore nosuch reason")
	f.Add("//lint:ignore directive self")
	f.Add("//lint:ignore , ,")
	f.Add("// plain comment")
	f.Add("//lint:ignoreX y z")
	f.Fuzz(func(t *testing.T, text string) {
		d, ok := ParseIgnoreDirective(text)
		if !ok {
			// Not recognized as a directive: it must genuinely not start
			// like one ("//lint:ignore" followed by space/tab/EOL).
			rest, has := strings.CutPrefix(text, ignorePrefix)
			if has && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				t.Fatalf("%q looks like a directive but was not recognized", text)
			}
			return
		}
		if d.Err != "" {
			if len(d.Checks) != 0 && d.Reason != "" {
				t.Fatalf("%q: malformed directive still carries checks+reason: %+v", text, d)
			}
			return
		}
		if len(d.Checks) == 0 {
			t.Fatalf("%q: valid directive with no checks", text)
		}
		for _, c := range d.Checks {
			if !KnownCheck(c) {
				t.Fatalf("%q: valid directive names unknown check %q", text, c)
			}
		}
		if strings.TrimSpace(d.Reason) == "" {
			t.Fatalf("%q: valid directive with empty reason", text)
		}
		if !utf8.ValidString(d.Reason) && utf8.ValidString(text) {
			t.Fatalf("%q: reason lost utf8 validity", text)
		}
	})
}
