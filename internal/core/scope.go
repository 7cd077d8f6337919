package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TelemetryScope owns telemetry for a family of systems that may be built
// and run concurrently (the parallel experiment harness). It solves the
// problem the old process-wide default could not: internal/telemetry is
// unsynchronized by design, so concurrent systems must not share sinks,
// yet the exported artifacts must still merge into one trace/CSV with
// stable "sys<k>." names, byte-identical for any worker count.
//
// The scope is a tree built in two deterministic phases:
//
//   - Before jobs launch, the coordinating goroutine calls Fork(n) to
//     reserve one child scope per job, in job-index order. Each job hands
//     its child to the systems it builds (Options.Scope); every adopting
//     system gets a fresh private Registry/Tracer/Series it owns
//     exclusively while it runs.
//   - After every job has returned, the coordinator calls Merge. A
//     depth-first walk over the fork tree visits systems in the exact
//     order a fully sequential run would have built them, assigns the
//     k-th visited system the "sys<k>." prefix, and merges its events and
//     rows under that prefix.
//
// Because numbering happens at merge time from the tree shape — never
// from construction timestamps — the artifact does not depend on how the
// scheduler interleaved the jobs. See internal/runpool and DESIGN.md §9.
//
// A nil *TelemetryScope is valid everywhere and means "uninstrumented":
// Fork returns nil children and adopt returns nil sinks, so experiment
// code threads scopes without nil checks.
type TelemetryScope struct {
	traceOn     bool
	metricsOn   bool
	sampleEvery sim.Time
	tailEvery   sim.Time // 0 = tail tracking off
	slots       []scopeSlot
}

// scopeSlot is one reserved position in the merge order: either a single
// adopted system's sinks or a forked child subtree.
type scopeSlot struct {
	sys   *Telemetry
	child *TelemetryScope
}

// NewTelemetryScope builds a scope recording spans (traceOn), sampled
// metrics (metricsOn, every sampleEvery of simulated time), windowed
// tail latency (tailEvery > 0, the window length), or any combination.
// Returns nil when every sink is off, so callers can pass the result
// straight into Options.Scope.
func NewTelemetryScope(traceOn, metricsOn bool, sampleEvery, tailEvery sim.Time) *TelemetryScope {
	if !traceOn && !metricsOn && tailEvery <= 0 {
		return nil
	}
	if metricsOn && sampleEvery <= 0 {
		sampleEvery = 25 * sim.Millisecond
	}
	if tailEvery < 0 {
		tailEvery = 0
	}
	return &TelemetryScope{traceOn: traceOn, metricsOn: metricsOn, sampleEvery: sampleEvery, tailEvery: tailEvery}
}

// Enabled reports whether the scope records anything (false for nil).
func (sc *TelemetryScope) Enabled() bool {
	return sc != nil && (sc.traceOn || sc.metricsOn || sc.tailEvery > 0)
}

// Fork reserves n child scopes in index order and returns them. Must be
// called from the goroutine owning sc — in the parallel harness, before
// the worker pool launches — so slot order is deterministic. Each child
// is then owned exclusively by its job until the job returns. On a nil
// scope it returns n nil children.
func (sc *TelemetryScope) Fork(n int) []*TelemetryScope {
	out := make([]*TelemetryScope, n)
	if sc == nil {
		return out
	}
	for i := range out {
		c := &TelemetryScope{traceOn: sc.traceOn, metricsOn: sc.metricsOn, sampleEvery: sc.sampleEvery, tailEvery: sc.tailEvery}
		sc.slots = append(sc.slots, scopeSlot{child: c})
		out[i] = c
	}
	return out
}

// adopt reserves the next slot for one system and returns fresh sinks
// for it (nil on a nil/disabled scope). Called by NewSystem; the system
// registers its instruments unprefixed — the global "sys<k>." prefix is
// applied at merge time from the slot position.
func (sc *TelemetryScope) adopt() *Telemetry {
	if !sc.Enabled() {
		return nil
	}
	t := NewTelemetry(sc.traceOn, sc.metricsOn, sc.sampleEvery, sc.tailEvery)
	sc.slots = append(sc.slots, scopeSlot{sys: t})
	return t
}

// Merge flattens the tree into one Telemetry bundle: a depth-first walk
// assigns the k-th visited system the "sys<k>." prefix and merges its
// spans and metric rows under it. Call only after every job owning a
// child has returned (the merge-after-Run ownership rule); the result's
// Tracer/Series are ready for export. On a nil scope it returns an empty
// bundle.
func (sc *TelemetryScope) Merge() *Telemetry {
	merged := &Telemetry{}
	if !sc.Enabled() {
		return merged
	}
	if sc.traceOn {
		merged.Tracer = telemetry.NewTracer()
	}
	if sc.metricsOn {
		merged.Series = &telemetry.Series{}
	}
	if sc.tailEvery > 0 {
		merged.Tail = telemetry.NewTailSeries()
	}
	k := 0
	sc.mergeInto(merged, &k)
	return merged
}

// mergeInto performs the depth-first prefix-assigning walk.
func (sc *TelemetryScope) mergeInto(dst *Telemetry, k *int) {
	for _, s := range sc.slots {
		if s.child != nil {
			s.child.mergeInto(dst, k)
			continue
		}
		prefix := fmt.Sprintf("sys%d.", *k)
		*k++
		dst.Tracer.MergePrefixed(s.sys.Tracer, prefix)
		dst.Series.MergePrefixed(s.sys.Series, prefix)
		dst.Tail.MergePrefixed(s.sys.Tail, prefix)
	}
}
