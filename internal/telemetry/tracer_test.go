package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// goldenTracer builds the fixed event sequence used by the golden-file and
// JSONL tests.
func goldenTracer() *Tracer {
	tr := NewTracer()
	tr.Complete("node0.nvdimm.io", "read", "io", 1500*sim.Nanosecond, 153700*sim.Nanosecond,
		U("req", 1), I("vmdk", 3), I("size", 4096), S("class", "normal"))
	tr.Complete("node0.bus.ch0", "xfer", "bus", 0, 372*sim.Nanosecond,
		F("wait_us", 0.25))
	tr.Instant("mgmt", "migrate", "mgmt", 25*sim.Millisecond,
		S("detail", "nvdimm->ssd"), I("vmdk", 3))
	tr.Complete("node0.nvdimm.io", "write", "io", 2*sim.Millisecond, 2*sim.Millisecond+15*sim.Microsecond,
		U("req", 2))
	return tr
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	// The output must be well-formed JSON with the trace_event envelope.
	var doc struct {
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	// 3 thread_name metadata records (one per distinct track) + 4 events.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d trace events, want 7", len(doc.TraceEvents))
	}

	golden := filepath.Join("testdata", "chrome_trace.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with go generate or copy test output)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Chrome trace output differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4", len(lines))
	}
	for i, line := range lines {
		var obj map[string]interface{}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if _, ok := obj["track"].(string); !ok {
			t.Fatalf("line %d lacks a track field: %s", i, line)
		}
	}
	var first map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["track"] != "node0.nvdimm.io" || first["name"] != "read" {
		t.Errorf("unexpected first JSONL event: %v", first)
	}
	// ts is µs: 1500 ns = 1.5 µs.
	if first["ts"] != 1.5 {
		t.Errorf("first event ts = %v, want 1.5", first["ts"])
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	// All of these must be safe no-ops.
	tr.Complete("a", "b", "c", 0, 1)
	tr.Instant("a", "b", "c", 0)
	if tr.NumEvents() != 0 || tr.Events() != nil {
		t.Error("nil tracer retained events")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil-tracer trace has %d events, want 0", len(doc.TraceEvents))
	}
	buf.Reset()
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("nil-tracer JSONL is non-empty")
	}
}

func TestCompleteClampsNegativeDuration(t *testing.T) {
	tr := NewTracer()
	tr.Complete("t", "n", "c", 100, 50)
	e := tr.Events()[0]
	if e.Dur != 0 {
		t.Errorf("dur = %v, want 0 for end < start", e.Dur)
	}
}

func TestUSString(t *testing.T) {
	cases := []struct {
		in   sim.Time
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1500, "1.500"},
		{123456789, "123456.789"},
		{-5, "0.000"},
	}
	for _, tc := range cases {
		if got := string(appendUS(nil, tc.in)); got != tc.want {
			t.Errorf("appendUS(%d) = %q, want %q", int64(tc.in), got, tc.want)
		}
	}
}
