//go:build !race

// The race detector instruments allocations of its own, so the zero-alloc
// guard only means something in an unraced build.

package telemetry

import (
	"testing"

	"repro/internal/sim"
)

// TestTracerSteadyStateZeroAllocs checks that recording allocates nothing
// once the strings are interned: args are copied into the args table, so
// the variadic slice stays on the caller's stack, and both tables grow a
// chunk at a time, which AllocsPerRun's integer average amortizes away
// over 2*chunkLen runs.
func TestTracerSteadyStateZeroAllocs(t *testing.T) {
	tr := NewTracer()
	var n uint64
	record := func() {
		n++
		at := sim.Time(n) * sim.Microsecond
		tr.Complete("node0.nvdimm.io", "read", "io", at, at+37*sim.Microsecond,
			U("req", n), I("vmdk", int64(n%8)), I("size", 4096), S("class", "normal"))
		tr.Instant("mgmt", "migrate", "mgmt", at,
			S("detail", "nvdimm->ssd"), I("vmdk", 3), F("wait_us", float64(n)/4))
	}
	record() // interns every string
	if allocs := testing.AllocsPerRun(2*chunkLen, record); allocs != 0 {
		t.Fatalf("recording a 4-arg span and a 3-arg instant made %v allocations per pair, want 0", allocs)
	}
	if got, want := tr.NumEvents(), 2*(1+1+2*chunkLen); got != want {
		t.Fatalf("NumEvents = %d, want %d", got, want)
	}
}
