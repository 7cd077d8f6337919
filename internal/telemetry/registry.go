// Package telemetry is the simulator's unified observability layer: a
// metrics registry of hierarchically named gauges; the
// log-spaced TailHist, the one latency-distribution type; a deterministic
// span tracer with Chrome trace_event and JSONL exporters; and a
// sim-time-driven windowed sampler that turns the registry into a
// plottable time series.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every producer-side hook is guarded by a
//     nil check on the tracer/instrument, so an uninstrumented run takes
//     no allocations and no extra branches beyond the nil test.
//  2. Deterministic. All timestamps are sim.Time, never wall clock;
//     all exports iterate in sorted or insertion order, so two runs with
//     the same seed produce byte-identical output.
//  3. Cheap when enabled. Gauges are read-callbacks over counters the
//     subsystems already maintain — registration adds no work to hot
//     paths; cost is paid only when a sample is taken.
//
// # Unsynchronized by design
//
// Nothing in this package takes a lock: Registry, Tracer, Sampler, and
// Series are all single-owner types, mutated only from the goroutine
// driving their system's sim.Engine. Adding mutexes would tax the hot
// path of every run to pay for parallelism most runs don't use, so
// concurrency is handled by ownership instead:
//
//   - one Registry/Tracer/Series per System, owned exclusively by the
//     goroutine running that system (internal/runpool hands exactly one
//     system's job to one worker at a time);
//   - merging happens only after the owning Run returns, on the
//     coordinating goroutine, via Tracer.MergePrefixed and
//     Series.MergePrefixed in job-index order (core.TelemetryScope walks
//     its fork tree to assign the stable "sys<k>." prefixes).
//
// Sharing any of these types across concurrently running systems is a
// data race, caught by the -race CI run of the parallel experiment
// matrix. See internal/runpool's package doc for the pool side of this
// contract and DESIGN.md §9 for the full determinism argument.
package telemetry

import (
	"fmt"
	"sort"
)

// Registry holds named gauges: read-callbacks evaluated at snapshot
// time. Names are hierarchical by dotted convention
// ("node0.nvdimm.cache.hits"); the registry itself treats them as opaque
// strings. Not safe for concurrent use — the simulator is
// single-threaded by construction.
type Registry struct {
	gauges map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: make(map[string]func() float64)}
}

// Gauge registers a read-callback under name. Gauges cannot merge:
// registering an existing name panics.
func (r *Registry) Gauge(name string, fn func() float64) {
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered", name))
	}
	r.gauges[name] = fn
}

// Point is one named value in a snapshot.
type Point struct {
	Name  string
	Value float64
}

// Snapshot evaluates every gauge and returns one point per gauge, sorted
// by name.
func (r *Registry) Snapshot() []Point {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Point, 0, len(names))
	for _, n := range names {
		out = append(out, Point{Name: n, Value: r.gauges[n]()})
	}
	return out
}
