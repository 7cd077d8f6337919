// Package slo parses service-level-objective specs over the tail-latency
// windows that internal/telemetry's TailTracker flushes, and tracks
// violations per tenant. A spec is a semicolon-separated list of
// objectives:
//
//	objective := [ target ":" ] quantile "=" limit
//	target    := "*" | "store=" NAME | "vmdk=" ID     (default "*")
//	quantile  := p50 | p95 | p99 | max
//	limit     := FLOAT [ "us" | "ms" | "s" ]          (default µs)
//
// An objective applies to every flushed window of every key its target
// matches; a window whose quantile exceeds the limit is a violation.
// Examples: "p99=500" (every store and VMDK must keep window p99 under
// 500 µs); "store=node0-nvdimm:p95=50us; vmdk=3:max=2ms".
//
// The Tracker consumes windows via TailTracker.OnWindow, emits one span
// tracer instant per violated objective, and counts violation windows
// per key — the per-tenant signal a future tail-aware balancing policy
// will steer by. Like every telemetry type it is unsynchronized, single-owner,
// and deterministic: keys arrive in sorted order from the tail flush and
// all accessors sort before iterating.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Quantile selects which tail statistic of a window an objective bounds.
type Quantile uint8

const (
	// P50 bounds the window median.
	P50 Quantile = iota
	// P95 bounds the window 95th percentile.
	P95
	// P99 bounds the window 99th percentile.
	P99
	// Max bounds the window maximum.
	Max
)

// String names the quantile as spelled in the spec grammar.
func (q Quantile) String() string {
	switch q {
	case P50:
		return "p50"
	case P95:
		return "p95"
	case P99:
		return "p99"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("quantile(%d)", uint8(q))
	}
}

// of extracts the quantile's value from a flushed window row.
func (q Quantile) of(r telemetry.TailRow) float64 {
	switch q {
	case P50:
		return r.P50US
	case P95:
		return r.P95US
	case P99:
		return r.P99US
	default:
		return r.MaxUS
	}
}

// Objective is one parsed objective: a latency bound on one quantile of
// the windows of the keys its target matches.
type Objective struct {
	// Store restricts the objective to the named store's windows ("" =
	// not store-targeted).
	Store string
	// VMDK restricts the objective to one tenant's windows (-1 = not
	// VMDK-targeted).
	VMDK int
	// Q is the bounded window quantile.
	Q Quantile
	// LimitUS is the bound in microseconds; a window whose quantile
	// exceeds it violates the objective.
	LimitUS float64
}

// Matches reports whether the objective applies to a tail key (a store
// name or "vmdk<id>").
func (o Objective) Matches(key string) bool {
	if o.Store != "" {
		return key == o.Store
	}
	if o.VMDK >= 0 {
		return key == "vmdk"+strconv.Itoa(o.VMDK)
	}
	return true
}

// String renders the objective in spec grammar.
func (o Objective) String() string {
	target := ""
	if o.Store != "" {
		target = "store=" + o.Store + ":"
	} else if o.VMDK >= 0 {
		target = "vmdk=" + strconv.Itoa(o.VMDK) + ":"
	}
	return target + o.Q.String() + "=" + strconv.FormatFloat(o.LimitUS, 'g', -1, 64) + "us"
}

// Spec is a parsed SLO specification.
type Spec struct {
	// Objectives lists the parsed objectives in spec order.
	Objectives []Objective
}

// Empty reports whether the spec contains no objectives.
func (s Spec) Empty() bool { return len(s.Objectives) == 0 }

// String renders the spec in canonical grammar.
func (s Spec) String() string {
	parts := make([]string, len(s.Objectives))
	for i, o := range s.Objectives {
		parts[i] = o.String()
	}
	return strings.Join(parts, ";")
}

// Parse parses an SLO spec. The empty string parses to the empty spec;
// malformed objectives return an explicit error naming the offending
// clause.
func Parse(spec string) (Spec, error) {
	var s Spec
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		o, err := parseObjective(part)
		if err != nil {
			return Spec{}, err
		}
		s.Objectives = append(s.Objectives, o)
	}
	return s, nil
}

// parseObjective parses one "[target:]quantile=limit" clause.
func parseObjective(part string) (Objective, error) {
	o := Objective{VMDK: -1}
	body := part
	if target, rest, ok := strings.Cut(part, ":"); ok {
		target = strings.TrimSpace(target)
		body = strings.TrimSpace(rest)
		switch {
		case target == "*":
			// Explicit everyone — the default.
		case strings.HasPrefix(target, "store="):
			o.Store = strings.TrimSpace(strings.TrimPrefix(target, "store="))
			if o.Store == "" {
				return Objective{}, fmt.Errorf("slo: empty store name in %q", part)
			}
		case strings.HasPrefix(target, "vmdk="):
			id, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(target, "vmdk=")))
			if err != nil || id < 0 {
				return Objective{}, fmt.Errorf("slo: bad vmdk id in %q", part)
			}
			o.VMDK = id
		default:
			return Objective{}, fmt.Errorf("slo: target %q (want *|store=NAME|vmdk=ID)", target)
		}
	}
	q, limit, ok := strings.Cut(body, "=")
	if !ok {
		return Objective{}, fmt.Errorf("slo: %q is not quantile=limit", body)
	}
	switch strings.TrimSpace(strings.ToLower(q)) {
	case "p50":
		o.Q = P50
	case "p95":
		o.Q = P95
	case "p99":
		o.Q = P99
	case "max":
		o.Q = Max
	default:
		return Objective{}, fmt.Errorf("slo: quantile %q (want p50|p95|p99|max)", strings.TrimSpace(q))
	}
	us, err := parseLimitUS(strings.TrimSpace(limit))
	if err != nil {
		return Objective{}, fmt.Errorf("slo: limit in %q: %w", part, err)
	}
	o.LimitUS = us
	return o, nil
}

// parseLimitUS parses a latency bound: a float with an optional us/ms/s
// unit suffix, microseconds by default.
func parseLimitUS(s string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "us"):
		s = strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ms"):
		s, mult = strings.TrimSuffix(s, "ms"), 1e3
	case strings.HasSuffix(s, "s"):
		s, mult = strings.TrimSuffix(s, "s"), 1e6
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a number", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("limit %g must be positive", v)
	}
	return v * mult, nil
}

// Tracker evaluates a Spec against every flushed tail window and
// accumulates per-key violation-window counts. Bind ObserveWindow to
// TailTracker.OnWindow. The nil *Tracker no-ops everywhere, so wiring
// sites need no SLO-enabled branches.
type Tracker struct {
	spec    Spec
	tr      *telemetry.Tracer
	track   string
	counts  map[string]uint64 // key → windows with ≥1 violated objective
	total   uint64            // sum of counts
	windows uint64            // tail windows inspected (rows grouped by flush)

	// OnViolation, when set, observes every violated (key, objective)
	// pair — the decision-log hook.
	OnViolation func(at sim.Time, key, detail string)
}

// NewTracker builds a tracker for the spec. Returns nil for an empty
// spec so callers can wire the result unconditionally.
func NewTracker(spec Spec) *Tracker {
	if spec.Empty() {
		return nil
	}
	return &Tracker{spec: spec, counts: make(map[string]uint64)}
}

// SetTracer emits one instant per violated (key, objective) pair on
// track. A nil tracer disables the instants.
func (t *Tracker) SetTracer(tr *telemetry.Tracer, track string) {
	if t == nil {
		return
	}
	t.tr = tr
	t.track = track
}

// ObserveWindow evaluates one flushed tail window (rows in the sorted
// key order the flush produces). No-op on a nil tracker.
func (t *Tracker) ObserveWindow(at sim.Time, rows []telemetry.TailRow) {
	if t == nil {
		return
	}
	t.windows++
	for _, r := range rows {
		violated := false
		for _, o := range t.spec.Objectives {
			if !o.Matches(r.Key) {
				continue
			}
			v := o.Q.of(r)
			if v <= o.LimitUS {
				continue
			}
			violated = true
			detail := fmt.Sprintf("%s %s=%.3fus > slo %.3fus", r.Key, o.Q, v, o.LimitUS)
			if t.tr != nil {
				t.tr.Instant(t.track, "slo.violation", "slo", at,
					telemetry.S("key", r.Key), telemetry.S("quantile", o.Q.String()),
					telemetry.F("value_us", v), telemetry.F("limit_us", o.LimitUS))
			}
			if t.OnViolation != nil {
				t.OnViolation(at, r.Key, detail)
			}
		}
		if violated {
			t.counts[r.Key]++
			t.total++
		}
	}
}

// RegisterTelemetry exposes violation gauges under prefix: the total
// violation-window count and the number of distinct keys that have
// violated at least once.
func (t *Tracker) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if t == nil {
		return
	}
	reg.Gauge(prefix+"violation_windows", func() float64 { return float64(t.total) })
	reg.Gauge(prefix+"keys_in_violation", func() float64 { return float64(len(t.counts)) })
}

// ViolationWindows returns the total number of (key, window) pairs with
// at least one violated objective (0 for nil).
func (t *Tracker) ViolationWindows() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Windows returns the number of tail windows inspected (0 for nil).
func (t *Tracker) Windows() uint64 {
	if t == nil {
		return 0
	}
	return t.windows
}

// Violations returns the violation-window count for one key.
func (t *Tracker) Violations(key string) uint64 {
	if t == nil {
		return 0
	}
	return t.counts[key]
}

// Keys returns the keys with at least one violation window, sorted.
func (t *Tracker) Keys() []string {
	if t == nil {
		return nil
	}
	keys := make([]string, 0, len(t.counts))
	for k := range t.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
