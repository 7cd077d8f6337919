package core

import (
	"bytes"
	"io"
	"os"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fillScopeSystem simulates one system's run against adopted sinks.
func fillScopeSystem(t *Telemetry, label string, at sim.Time) {
	t.Tracer.Complete("wl."+label, "req", "io", at, at+sim.Microsecond)
	t.Registry.Gauge("node0."+label+".ops", func() float64 { return float64(at) })
	t.Series.Append(telemetry.Row{At: at, Points: t.Registry.Snapshot()})
}

// countSystems returns the number of systems adopted anywhere in the
// scope's fork tree.
func countSystems(sc *TelemetryScope) int {
	if sc == nil {
		return 0
	}
	n := 0
	for _, s := range sc.slots {
		if s.child != nil {
			n += countSystems(s.child)
		} else {
			n++
		}
	}
	return n
}

// exportScope renders a merged scope to comparable bytes.
func exportScope(sc *TelemetryScope) (trace, csv []byte) {
	m := sc.Merge()
	var tb, cb bytes.Buffer
	if err := m.Tracer.WriteChromeTrace(&tb); err != nil {
		panic(err)
	}
	if err := m.Series.WriteCSV(&cb); err != nil {
		panic(err)
	}
	return tb.Bytes(), cb.Bytes()
}

// TestScopeMergeOrderIndependent asserts the merged artifact depends only
// on the fork-tree shape, not on the order concurrent jobs touched their
// children — the core of the -jobs N byte-identity guarantee.
func TestScopeMergeOrderIndependent(t *testing.T) {
	build := func(adoptionOrder []int) (trace, csv []byte) {
		sc := NewTelemetryScope(true, true, sim.Millisecond, 0)
		kids := sc.Fork(3)
		tels := make([]*Telemetry, 3)
		for _, i := range adoptionOrder { // out-of-order = parallel completion
			tels[i] = kids[i].adopt()
		}
		for i, tel := range tels {
			fillScopeSystem(tel, []string{"a", "b", "c"}[i], sim.Time(i+1)*sim.Millisecond)
		}
		return exportScope(sc)
	}
	seqTrace, seqCSV := build([]int{0, 1, 2})
	parTrace, parCSV := build([]int{2, 0, 1})
	if !bytes.Equal(seqTrace, parTrace) {
		t.Fatalf("trace differs across adoption orders:\nseq: %s\npar: %s", seqTrace, parTrace)
	}
	if !bytes.Equal(seqCSV, parCSV) {
		t.Fatalf("CSV differs across adoption orders:\nseq: %s\npar: %s", seqCSV, parCSV)
	}
	if !bytes.Contains(parTrace, []byte(`"sys0.wl.a"`)) ||
		!bytes.Contains(parTrace, []byte(`"sys2.wl.c"`)) {
		t.Fatalf("missing stable sys<k> track names:\n%s", parTrace)
	}
	if !bytes.Contains(parCSV, []byte("sys1.node0.b.ops")) {
		t.Fatalf("missing stable sys<k> metric names:\n%s", parCSV)
	}
}

// TestScopeNestedNumbering asserts the depth-first walk numbers systems
// exactly as a sequential run would: direct adoptions and forked subtrees
// interleave in slot order.
func TestScopeNestedNumbering(t *testing.T) {
	sc := NewTelemetryScope(true, false, 0, 0)
	first := sc.adopt()      // sys0
	kids := sc.Fork(2)       // sys1 (child0), sys2+sys3 (child1)
	last := sc.adopt()       // sys4
	inner := kids[1].Fork(2) // nested fan-out
	fillScopeSystem2 := func(tel *Telemetry, label string) {
		tel.Tracer.Instant("wl."+label, "tick", "t", sim.Microsecond)
	}
	fillScopeSystem2(first, "first")
	fillScopeSystem2(kids[0].adopt(), "k0")
	fillScopeSystem2(inner[0].adopt(), "i0")
	fillScopeSystem2(inner[1].adopt(), "i1")
	fillScopeSystem2(last, "last")
	if n := countSystems(sc); n != 5 {
		t.Fatalf("systems = %d, want 5", n)
	}
	var tb bytes.Buffer
	if err := sc.Merge().Tracer.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"sys0.wl.first"`, `"sys1.wl.k0"`, `"sys2.wl.i0"`, `"sys3.wl.i1"`, `"sys4.wl.last"`,
	} {
		if !bytes.Contains(tb.Bytes(), []byte(want)) {
			t.Fatalf("merged trace missing %s:\n%s", want, tb.String())
		}
	}
}

// TestScopeNilSafety asserts the nil scope is inert end to end, so
// uninstrumented experiment paths need no branching.
func TestScopeNilSafety(t *testing.T) {
	var sc *TelemetryScope
	if sc.Enabled() {
		t.Fatal("nil scope enabled")
	}
	kids := sc.Fork(4)
	if len(kids) != 4 {
		t.Fatalf("Fork on nil returned %d children", len(kids))
	}
	for _, k := range kids {
		if k != nil {
			t.Fatal("nil scope forked a live child")
		}
	}
	if tel := sc.adopt(); tel != nil {
		t.Fatal("nil scope adopted sinks")
	}
	if countSystems(sc) != 0 {
		t.Fatal("nil scope counts systems")
	}
	m := sc.Merge()
	if m.Tracer != nil || m.Series != nil {
		t.Fatal("nil scope merged sinks")
	}
}

// TestTelemetryExport pins the CLIs' shared writer: each non-empty path
// gets its sink's own export (JSONL for a .jsonl trace path), each file
// is reported on w, and a nil Telemetry with no paths writes nothing.
func TestTelemetryExport(t *testing.T) {
	tel := NewTelemetry(true, true, sim.Millisecond, sim.Millisecond)
	fillScopeSystem(tel, "a", sim.Millisecond)
	dir := t.TempDir()
	trace, metrics, tail := dir+"/t.jsonl", dir+"/m.csv", dir+"/tail.csv"
	var w bytes.Buffer
	if err := tel.Export(trace, metrics, tail, &w); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, f := range []struct {
		path  string
		write func(io.Writer) error
	}{{trace, tel.Tracer.WriteJSONL}, {metrics, tel.Series.WriteCSV}, {tail, tel.Tail.WriteCSV}} {
		want.Reset()
		if err := f.write(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s differs from its sink's export", f.path)
		}
	}
	wantLines := "wrote 1 trace events to " + trace + "\nwrote 1 metric samples to " + metrics +
		"\nwrote 0 tail windows to " + tail + "\n"
	if w.String() != wantLines {
		t.Errorf("reported %q, want %q", w.String(), wantLines)
	}

	w.Reset()
	if err := (*Telemetry)(nil).Export("", "", "", &w); err != nil || w.Len() != 0 {
		t.Fatalf("nil Telemetry with no paths: err %v, wrote %q", err, w.String())
	}
}
