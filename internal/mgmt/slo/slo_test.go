package slo

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestParse(t *testing.T) {
	s, err := Parse("p99=500")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Objectives) != 1 {
		t.Fatalf("objectives = %d, want 1", len(s.Objectives))
	}
	o := s.Objectives[0]
	if o.Q != P99 || o.LimitUS != 500 || o.Store != "" || o.VMDK != -1 {
		t.Fatalf("objective = %+v", o)
	}
	if !o.Matches("node0-ssd") || !o.Matches("vmdk3") {
		t.Fatal("untargeted objective must match every key")
	}
}

func TestParseTargetsAndUnits(t *testing.T) {
	s, err := Parse("store=node0-nvdimm:p95=50us; vmdk=3:max=2ms; *:p50=1s")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Objectives) != 3 {
		t.Fatalf("objectives = %d, want 3", len(s.Objectives))
	}
	st, vm, all := s.Objectives[0], s.Objectives[1], s.Objectives[2]
	if st.Store != "node0-nvdimm" || st.Q != P95 || st.LimitUS != 50 {
		t.Fatalf("store objective = %+v", st)
	}
	if st.Matches("node0-ssd") || !st.Matches("node0-nvdimm") {
		t.Fatal("store targeting wrong")
	}
	if vm.VMDK != 3 || vm.Q != Max || vm.LimitUS != 2000 {
		t.Fatalf("vmdk objective = %+v", vm)
	}
	if vm.Matches("vmdk4") || !vm.Matches("vmdk3") {
		t.Fatal("vmdk targeting wrong")
	}
	if all.Q != P50 || all.LimitUS != 1e6 {
		t.Fatalf("wildcard objective = %+v", all)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"p42=500",          // unknown quantile
		"p99=abc",          // non-numeric limit
		"p99=-5",           // non-positive limit
		"p99=0",            // non-positive limit
		"host=a:p99=5",     // unknown target
		"vmdk=x:p99=5",     // bad vmdk id
		"store=:p99=5",     // empty store
		"p99",              // missing =
		"vmdk=1:p99=1zzms", // garbage in number
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestParseEmptyAndRoundTrip(t *testing.T) {
	s, err := Parse("  ;  ")
	if err != nil || !s.Empty() {
		t.Fatalf("blank spec: %v, %+v", err, s)
	}
	orig := "store=node0-ssd:p99=500us;vmdk=2:max=1000us"
	s, err = Parse(orig)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != orig {
		t.Fatalf("round trip = %q, want %q", got, orig)
	}
}

func TestTrackerCountsAndInstants(t *testing.T) {
	spec, err := Parse("p99=100")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(spec)
	tracer := telemetry.NewTracer()
	tr.SetTracer(tracer, "slo")
	var noted []string
	tr.OnViolation = func(at sim.Time, key, detail string) { noted = append(noted, key+": "+detail) }

	rows := []telemetry.TailRow{
		{At: sim.Millisecond, Key: "fast", Count: 10, P99US: 50},
		{At: sim.Millisecond, Key: "slow", Count: 10, P99US: 500},
	}
	tr.ObserveWindow(sim.Millisecond, rows)
	tr.ObserveWindow(2*sim.Millisecond, rows)

	if tr.Windows() != 2 || tr.ViolationWindows() != 2 {
		t.Fatalf("windows=%d violations=%d, want 2/2", tr.Windows(), tr.ViolationWindows())
	}
	if tr.Violations("slow") != 2 || tr.Violations("fast") != 0 {
		t.Fatalf("per-key: slow=%d fast=%d", tr.Violations("slow"), tr.Violations("fast"))
	}
	if keys := tr.Keys(); len(keys) != 1 || keys[0] != "slow" {
		t.Fatalf("Keys = %v", keys)
	}
	if tracer.NumEvents() != 2 {
		t.Fatalf("tracer recorded %d instants, want 2", tracer.NumEvents())
	}
	ev := tracer.Events()[0]
	if ev.Name != "slo.violation" || ev.Cat != "slo" || ev.Ph != 'i' {
		t.Fatalf("instant = %+v", ev)
	}
	if len(noted) != 2 || !strings.Contains(noted[0], "slow p99=500.000us > slo 100.000us") {
		t.Fatalf("OnViolation saw %v", noted)
	}
}

func TestTrackerOneWindowCountPerKey(t *testing.T) {
	// Two objectives both violated by one window must count the key's
	// window once, while emitting one instant per objective.
	spec, err := Parse("p95=10;p99=10")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(spec)
	tracer := telemetry.NewTracer()
	tr.SetTracer(tracer, "slo")
	tr.ObserveWindow(sim.Millisecond, []telemetry.TailRow{
		{At: sim.Millisecond, Key: "k", Count: 5, P95US: 99, P99US: 99},
	})
	if tr.Violations("k") != 1 || tr.ViolationWindows() != 1 {
		t.Fatalf("window counted %d times", tr.Violations("k"))
	}
	if tracer.NumEvents() != 2 {
		t.Fatalf("instants = %d, want 2 (one per objective)", tracer.NumEvents())
	}
}

func TestTrackerNilAndEmpty(t *testing.T) {
	if NewTracker(Spec{}) != nil {
		t.Fatal("empty spec built a live tracker")
	}
	var tr *Tracker
	tr.ObserveWindow(0, nil) // must not panic
	tr.SetTracer(telemetry.NewTracer(), "slo")
	tr.RegisterTelemetry(telemetry.NewRegistry(), "slo.")
	if tr.Windows() != 0 || tr.ViolationWindows() != 0 || tr.Keys() != nil {
		t.Fatal("nil tracker not inert")
	}
}

func TestTrackerGauges(t *testing.T) {
	spec, _ := Parse("max=1")
	tr := NewTracker(spec)
	reg := telemetry.NewRegistry()
	tr.RegisterTelemetry(reg, "slo.")
	tr.ObserveWindow(sim.Millisecond, []telemetry.TailRow{
		{Key: "a", Count: 1, MaxUS: 5}, {Key: "b", Count: 1, MaxUS: 5},
	})
	snap := reg.Snapshot()
	got := map[string]float64{}
	for _, p := range snap {
		got[p.Name] = p.Value
	}
	if got["slo.violation_windows"] != 2 || got["slo.keys_in_violation"] != 2 {
		t.Fatalf("gauges = %v", got)
	}
}
