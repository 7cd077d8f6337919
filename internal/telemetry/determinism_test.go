package telemetry_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// buildAndRun assembles a small fully instrumented system and returns its
// exported trace and metrics CSV bytes.
func buildAndRun(t *testing.T, seed uint64) (traceOut, csvOut []byte) {
	return buildAndRunSpec(t, seed, "")
}

func buildAndRunSpec(t *testing.T, seed uint64, faultSpec string) (traceOut, csvOut []byte) {
	t.Helper()
	tel := &core.Telemetry{
		Registry:    telemetry.NewRegistry(),
		Tracer:      telemetry.NewTracer(),
		SampleEvery: 10 * sim.Millisecond,
	}
	sys, err := core.NewSystem(core.Options{
		Apps:      []string{"sort", "bayes"},
		Seed:      seed,
		Telemetry: tel,
		FaultSpec: faultSpec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(60 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	var tb, cb bytes.Buffer
	if err := tel.Tracer.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := sys.Sampler().Series().WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), cb.Bytes()
}

// TestTraceDeterminism runs the same seeded system twice and requires
// byte-identical exports: spans are stamped with simulated time only, and
// every exporter iterates in sorted or insertion order.
func TestTraceDeterminism(t *testing.T) {
	trace1, csv1 := buildAndRun(t, 7)
	trace2, csv2 := buildAndRun(t, 7)
	if !bytes.Equal(trace1, trace2) {
		t.Error("same-seed runs produced different Chrome traces")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("same-seed runs produced different metrics CSV")
	}
	if len(trace1) == 0 || len(csv1) == 0 {
		t.Fatal("instrumented run produced empty exports")
	}

	// A different seed must change the trace (the instrumentation actually
	// observes the simulation, not a constant).
	trace3, _ := buildAndRun(t, 8)
	if bytes.Equal(trace1, trace3) {
		t.Error("different seeds produced identical traces")
	}
}

// TestDormantFaultSpecIsInvisible: arming a fault spec whose windows lie
// entirely beyond the end of the run must leave the simulation untouched —
// the injector draws from its own RNG streams, so a same-seed run with a
// dormant spec produces a byte-identical Chrome trace. (The metrics CSV is
// excluded: registering the injector's gauges legitimately adds columns.)
func TestDormantFaultSpecIsInvisible(t *testing.T) {
	clean, _ := buildAndRun(t, 7)
	dormant, _ := buildAndRunSpec(t, 7,
		"dev=node0-nvdimm:errate=0.5@1s..2s,degrade=4@1s..2s;dev=node0-ssd:outage@1s..2s")
	if !bytes.Equal(clean, dormant) {
		t.Error("dormant fault spec perturbed the simulation (traces differ)")
	}

	// And once a window does overlap the run, the trace must change: the
	// injector actually fires.
	active, _ := buildAndRunSpec(t, 7, "dev=node0-nvdimm:errate=0.5@5ms..50ms")
	if bytes.Equal(clean, active) {
		t.Error("active fault spec left the trace unchanged")
	}
}

// TestTelemetryCoverage checks that one instrumented run touches every
// layer the tentpole wires: devices, bus, cache, scheduler, manager, and
// workloads.
func TestTelemetryCoverage(t *testing.T) {
	tel := &core.Telemetry{
		Registry:    telemetry.NewRegistry(),
		Tracer:      telemetry.NewTracer(),
		SampleEvery: 10 * sim.Millisecond,
	}
	sys, err := core.NewSystem(core.Options{
		Apps:      []string{"sort"},
		Seed:      3,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(50 * sim.Millisecond)

	pts := tel.Registry.Snapshot()
	byName := make(map[string]float64, len(pts))
	for _, p := range pts {
		byName[p.Name] = p.Value
	}
	for _, name := range []string{
		"node0.nvdimm.lat_mean_us",
		"node0.nvdimm.cache.hit_ratio",
		"node0.nvdimm.sched.completed_persistent",
		"node0.nvdimm.ftl.write_amp",
		"node0.ssd.lat_mean_us",
		"node0.hdd.lat_mean_us",
		"node0.hdd.lat_hist.p95_us",
		"node0.bus.ch0.io_wait_us_mean",
		"node0.bus.ch0.util",
		"mgmt.epochs",
		"mgmt.decision_log.len",
		"wl0.sort.completed",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("registry missing %s", name)
		}
	}

	if sys.Sampler().Series().Len() < 3 {
		t.Errorf("sampler recorded %d rows, want >= 3", sys.Sampler().Series().Len())
	}

	cats := make(map[string]int)
	for _, e := range tel.Tracer.Events() {
		cats[e.Cat]++
	}
	for _, cat := range []string{"io", "bus", "sched", "workload"} {
		if cats[cat] == 0 {
			t.Errorf("trace has no %q spans (got %v)", cat, cats)
		}
	}
}
