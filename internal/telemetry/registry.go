// Package telemetry is the simulator's unified observability layer: a
// metrics registry of hierarchically named counters and gauges; the
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

// Kind identifies an instrument type.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a read-callback sampled at snapshot time.
	KindGauge
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing count owned by the registry.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a read-callback evaluated at snapshot time.
type Gauge struct{ fn func() float64 }

// Value evaluates the gauge.
func (g *Gauge) Value() float64 { return g.fn() }

// entry is one registered instrument.
type entry struct {
	kind    Kind
	counter *Counter
	gauge   *Gauge
}

// Registry holds named instruments. Names are hierarchical by dotted
// convention ("node0.nvdimm.cache.hits"); the registry itself treats them
// as opaque strings. Not safe for concurrent use — the simulator is
// single-threaded by construction.
type Registry struct {
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int { return len(r.entries) }

// Counter returns the counter registered under name, creating it on first
// use. Re-registering the same name as a counter returns the existing
// instance; it panics if the name is held by a different kind (a
// namespace-collision programming error).
func (r *Registry) Counter(name string) *Counter {
	if e, ok := r.entries[name]; ok {
		if e.kind != KindCounter {
			panic(fmt.Sprintf("telemetry: %q already registered as %v", name, e.kind))
		}
		return e.counter
	}
	c := &Counter{}
	r.entries[name] = &entry{kind: KindCounter, counter: c}
	return c
}

// Gauge registers a read-callback under name. Unlike counters, gauges
// cannot merge: registering any existing name panics.
func (r *Registry) Gauge(name string, fn func() float64) {
	if e, ok := r.entries[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %v", name, e.kind))
	}
	r.entries[name] = &entry{kind: KindGauge, gauge: &Gauge{fn: fn}}
}

// Point is one named value in a snapshot.
type Point struct {
	Name  string
	Value float64
}

// Snapshot evaluates every instrument and returns one point per
// instrument, sorted by name.
func (r *Registry) Snapshot() []Point {
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Point, 0, len(names))
	for _, n := range names {
		e := r.entries[n]
		switch e.kind {
		case KindCounter:
			out = append(out, Point{Name: n, Value: float64(e.counter.v)})
		case KindGauge:
			out = append(out, Point{Name: n, Value: e.gauge.Value()})
		}
	}
	return out
}
