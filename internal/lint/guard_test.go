package lint

import (
	"strings"
	"testing"
)

// TestParseGuardedBy is the table test for the guarded-by grammar: valid
// bare and qualified guard lists, and every malformed shape the parser
// distinguishes.
func TestParseGuardedBy(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		errSub string
		guards []GuardRef
	}{
		{text: "// plain comment", ok: false},
		{text: "//lint:ignore walltime r", ok: false},
		{text: "//lint:guarded-byte x", ok: false},
		{text: "//lint:guarded-by setQuarantined", ok: true,
			guards: []GuardRef{{Name: "setQuarantined"}}},
		{text: "//lint:guarded-by Manager.setQuarantined", ok: true,
			guards: []GuardRef{{Recv: "Manager", Name: "setQuarantined"}}},
		{text: "//lint:guarded-by Index.reindex,markDirty", ok: true,
			guards: []GuardRef{{Recv: "Index", Name: "reindex"}, {Name: "markDirty"}}},
		{text: "//lint:guarded-by", ok: true, errSub: "missing function list"},
		{text: "//lint:guarded-by  ", ok: true, errSub: "missing function list"},
		{text: "//lint:guarded-by a b", ok: true, errSub: "unexpected text"},
		{text: "//lint:guarded-by a,,b", ok: true, errSub: "empty function name"},
		{text: "//lint:guarded-by a.b.c", ok: true, errSub: "more than one dot"},
		{text: "//lint:guarded-by 1bad", ok: true, errSub: "not an identifier"},
		{text: "//lint:guarded-by T.", ok: true, errSub: "not an identifier"},
	}
	for _, tc := range cases {
		g, ok := ParseGuardedBy(tc.text)
		if ok != tc.ok {
			t.Errorf("%q: ok=%v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if tc.errSub != "" {
			if !strings.Contains(g.Err, tc.errSub) {
				t.Errorf("%q: Err=%q, want substring %q", tc.text, g.Err, tc.errSub)
			}
			if len(g.Guards) != 0 {
				t.Errorf("%q: malformed declaration still carries guards: %+v", tc.text, g)
			}
			continue
		}
		if g.Err != "" {
			t.Errorf("%q: unexpected Err %q", tc.text, g.Err)
			continue
		}
		if len(g.Guards) != len(tc.guards) {
			t.Errorf("%q: guards=%v, want %v", tc.text, g.Guards, tc.guards)
			continue
		}
		for i := range g.Guards {
			if g.Guards[i] != tc.guards[i] {
				t.Errorf("%q: guard[%d]=%v, want %v", tc.text, i, g.Guards[i], tc.guards[i])
			}
		}
	}
}

// TestParseAckPath covers the (deliberately tiny) ack-path grammar.
func TestParseAckPath(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		errSub string
		reason string
	}{
		{text: "// plain comment", ok: false},
		{text: "//lint:ack-pathological x", ok: false},
		{text: "//lint:ack-path app writes ack here", ok: true, reason: "app writes ack here"},
		{text: "//lint:ack-path", ok: true, errSub: "missing reason"},
		{text: "//lint:ack-path \t ", ok: true, errSub: "missing reason"},
	}
	for _, tc := range cases {
		a, ok := parseAckPath(tc.text)
		if ok != tc.ok {
			t.Errorf("%q: ok=%v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if tc.errSub != "" {
			if !strings.Contains(a.Err, tc.errSub) {
				t.Errorf("%q: Err=%q, want substring %q", tc.text, a.Err, tc.errSub)
			}
			continue
		}
		if a.Err != "" || a.Reason != tc.reason {
			t.Errorf("%q: got %+v, want reason %q", tc.text, a, tc.reason)
		}
	}
}

// TestCallGraphReachability unit-tests the graph over the fixture
// module: CHA resolves the wallreach interface call to the cmd/progress
// implementation, the facade's wall read propagates to its callers with
// a deterministic witness, and ack-path reachability is transitive but
// does not leak into background functions.
func TestCallGraphReachability(t *testing.T) {
	m, err := LoadModule(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.graph()
	if err != nil {
		t.Fatal(err)
	}
	wallByName := make(map[string]string)
	ackByName := make(map[string]string)
	for _, n := range g.order {
		key := n.pkg.Rel + "." + funcDisplay(n.obj)
		if w, ok := g.wallFrom[n.obj]; ok {
			wallByName[key] = w.name + " at " + w.file
		}
		if root, ok := g.ackFrom[n.obj]; ok {
			ackByName[key] = funcDisplay(root.obj)
		}
	}
	for key, wantWitness := range map[string]string{
		"cmd/progress.Spinner.Tick": "time.Since at cmd/progress/main.go",
		"..WallElapsed":             "time.Since at facade.go",
		"internal/wallreach.Drive":  "time.Since at cmd/progress/main.go",
		"internal/wallreach.Stamp":  "time.Since at facade.go",
	} {
		if got := wallByName[key]; got != wantWitness {
			t.Errorf("wallFrom[%s] = %q, want %q", key, got, wantWitness)
		}
	}
	if _, ok := wallByName["internal/wallreach.Scale"]; ok {
		t.Error("Scale must not reach the wall clock (calls only the pure facade helper)")
	}
	for key, wantRoot := range map[string]string{
		"internal/journalfence.Disk.Submit": "Disk.Submit",
		"internal/journalfence.Disk.ack":    "Disk.Submit",
		"internal/journalfence.Disk.flush":  "Disk.Submit",
		// A completion bound as a method value is reached from where the
		// value is taken.
		"internal/journalfence.Disk.take":      "Disk.SubmitAsync",
		"internal/journalfence.write.complete": "Disk.SubmitAsync",
	} {
		if got := ackByName[key]; got != wantRoot {
			t.Errorf("ackFrom[%s] = %q, want %q", key, got, wantRoot)
		}
	}
	if _, ok := ackByName["internal/journalfence.backgroundCopy"]; ok {
		t.Error("backgroundCopy must not be ack-reachable")
	}
}

// FuzzParseGuardedBy mirrors FuzzParseIgnoreDirective for the guarded-by
// grammar: the parser must never panic, and valid declarations must
// carry only well-formed identifier (or Type.name) guard references.
func FuzzParseGuardedBy(f *testing.F) {
	f.Add("//lint:guarded-by setQuarantined")
	f.Add("//lint:guarded-by Manager.setQuarantined,markDirty")
	f.Add("//lint:guarded-by")
	f.Add("//lint:guarded-by a b")
	f.Add("//lint:guarded-by a..b")
	f.Add("//lint:guarded-by ,")
	f.Add("//lint:guarded-byte x")
	f.Add("// plain comment")
	f.Fuzz(func(t *testing.T, text string) {
		g, ok := ParseGuardedBy(text)
		if !ok {
			rest, has := strings.CutPrefix(text, guardedByPrefix)
			if has && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				t.Fatalf("%q looks like a guarded-by declaration but was not recognized", text)
			}
			return
		}
		if g.Err != "" {
			if len(g.Guards) != 0 {
				t.Fatalf("%q: malformed declaration still carries guards: %+v", text, g)
			}
			return
		}
		if len(g.Guards) == 0 {
			t.Fatalf("%q: valid declaration with no guards", text)
		}
		for _, ref := range g.Guards {
			if !goIdent(ref.Name) || (ref.Recv != "" && !goIdent(ref.Recv)) {
				t.Fatalf("%q: valid declaration carries non-identifier guard %+v", text, ref)
			}
		}
	})
}
