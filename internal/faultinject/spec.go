// Package faultinject is the deterministic fault layer of the storage
// hierarchy: it arms per-device I/O error rates, transient latency
// degradation, whole-device outages, and per-link drop/stall faults from a
// textual spec, and injects them with a seed-derived RNG that is fully
// independent of the simulation's own random streams — so a run with no
// faults configured is byte-identical to one where the injector was never
// built, and a run with a fixed spec + seed reproduces the exact same
// failures every time.
//
// Spec grammar (whitespace around tokens is ignored):
//
//	spec    := clause { ";" clause }
//	clause  := target ":" fault { "," fault }
//	target  := "dev=" NAME | "link=" NODE "-" NODE | "node=" NODE
//	fault   := "errate=" PROB [ window ]     (device: per-request I/O error probability)
//	         | "degrade=" FACTOR [ window ]  (device: latency multiplier, ≥ 1)
//	         | "outage" window               (device: fails every request in the window)
//	         | "crash" when                  (device/node: power loss, volatile state torn down)
//	         | "drop=" PROB [ window ]       (link: per-transfer drop probability)
//	         | "stall=" DUR [ window ]       (link: fixed extra delay per transfer)
//	window  := "@" DUR ".." DUR              (absolute sim-time episode, From < To)
//	when    := "@" DUR                       (exact sim instant, > 0)
//	         | "@" DUR ".." DUR              (instant drawn from the window by the target's RNG)
//
// DUR is a Go duration ("50ms", "1.5s"); PROB is a float in [0,1]. A fault
// without a window is active for the whole run. "node=" clauses model a
// whole-server power loss and accept only the crash fault; "crash" on a
// "dev=" clause takes down just that device. Example:
//
//	dev=node0-nvdimm:errate=0.4@40ms..240ms,degrade=6@40ms..240ms;link=0-1:drop=0.2;node=0:crash@120ms
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Window is a sim-time episode during which a fault is active. The zero
// value means "always active".
type Window struct {
	From, To sim.Time
}

// always reports whether the window covers the whole run.
func (w Window) always() bool { return w.From == 0 && w.To == 0 }

// Active reports whether t falls inside the window.
func (w Window) Active(t sim.Time) bool {
	if w.always() {
		return true
	}
	return t >= w.From && t < w.To
}

// String renders the window suffix ("" when always active).
func (w Window) String() string {
	if w.always() {
		return ""
	}
	return fmt.Sprintf("@%s..%s", durString(w.From), durString(w.To))
}

// FaultKind identifies one fault mechanism.
type FaultKind uint8

const (
	// FaultErrRate fails each device request with probability P.
	FaultErrRate FaultKind = iota
	// FaultDegrade multiplies device latency by Factor.
	FaultDegrade
	// FaultOutage fails every device request in the window.
	FaultOutage
	// FaultDrop fails each link transfer with probability P.
	FaultDrop
	// FaultStall delays each link transfer by Stall.
	FaultStall
	// FaultCrash powers the target off and back on at one instant: either
	// the exact time At, or a point the injector's seed-derived RNG draws
	// from Win at arm time. In-flight I/O against the target errors and
	// the management layer's volatile state for it is torn down per the
	// per-device durability model (DESIGN.md §13).
	FaultCrash
)

// String names the kind as it appears in the spec grammar.
func (k FaultKind) String() string {
	switch k {
	case FaultErrRate:
		return "errate"
	case FaultDegrade:
		return "degrade"
	case FaultOutage:
		return "outage"
	case FaultDrop:
		return "drop"
	case FaultStall:
		return "stall"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// Fault is one armed fault mechanism with its activity window.
type Fault struct {
	Kind   FaultKind
	P      float64  // errate/drop probability in [0,1]
	Factor float64  // degrade latency multiplier, >= 1
	Stall  sim.Time // stall delay per transfer
	At     sim.Time // crash: exact instant (0 = draw from Win)
	Win    Window
}

// String renders the fault in spec grammar.
func (f Fault) String() string {
	switch f.Kind {
	case FaultErrRate, FaultDrop:
		return fmt.Sprintf("%s=%s%s", f.Kind, probString(f.P), f.Win)
	case FaultDegrade:
		return fmt.Sprintf("degrade=%s%s", probString(f.Factor), f.Win)
	case FaultStall:
		return fmt.Sprintf("stall=%s%s", durString(f.Stall), f.Win)
	case FaultCrash:
		if f.At > 0 {
			return fmt.Sprintf("crash@%s", durString(f.At))
		}
		return "crash" + f.Win.String()
	default:
		return "outage" + f.Win.String()
	}
}

// DeviceClause arms faults against one named device.
type DeviceClause struct {
	Device string
	Faults []Fault
}

// LinkClause arms faults against the (undirected) link between two nodes.
type LinkClause struct {
	A, B   int
	Faults []Fault
}

// NodeClause arms a whole-server power loss against one node: every
// device on the node crashes at the same instant. Only crash faults are
// legal here.
type NodeClause struct {
	Node   int
	Faults []Fault
}

// Spec is a parsed fault specification. The zero value arms nothing.
type Spec struct {
	Devices []DeviceClause
	Links   []LinkClause
	Nodes   []NodeClause
}

// Empty reports whether the spec arms no faults at all.
func (s *Spec) Empty() bool {
	return s == nil || (len(s.Devices) == 0 && len(s.Links) == 0 && len(s.Nodes) == 0)
}

// String renders the spec canonically (parse → String → parse round-trips).
func (s *Spec) String() string {
	var parts []string
	for _, d := range s.Devices {
		fs := make([]string, len(d.Faults))
		for i, f := range d.Faults {
			fs[i] = f.String()
		}
		parts = append(parts, fmt.Sprintf("dev=%s:%s", d.Device, strings.Join(fs, ",")))
	}
	for _, l := range s.Links {
		fs := make([]string, len(l.Faults))
		for i, f := range l.Faults {
			fs[i] = f.String()
		}
		parts = append(parts, fmt.Sprintf("link=%d-%d:%s", l.A, l.B, strings.Join(fs, ",")))
	}
	for _, n := range s.Nodes {
		fs := make([]string, len(n.Faults))
		for i, f := range n.Faults {
			fs[i] = f.String()
		}
		parts = append(parts, fmt.Sprintf("node=%d:%s", n.Node, strings.Join(fs, ",")))
	}
	return strings.Join(parts, ";")
}

// ParseSpec parses the fault-spec grammar. An empty (or all-whitespace)
// input yields an empty spec. Errors name the offending clause.
func ParseSpec(input string) (*Spec, error) {
	spec := &Spec{}
	if strings.TrimSpace(input) == "" {
		return spec, nil
	}
	devSeen := make(map[string]bool)
	linkSeen := make(map[[2]int]bool)
	nodeSeen := make(map[int]bool)
	for _, raw := range strings.Split(input, ";") {
		clause := strings.TrimSpace(raw)
		if clause == "" {
			continue
		}
		target, faults, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q: missing ':' between target and faults", clause)
		}
		target = strings.TrimSpace(target)
		switch {
		case strings.HasPrefix(target, "dev="):
			name := strings.TrimSpace(strings.TrimPrefix(target, "dev="))
			if name == "" {
				return nil, fmt.Errorf("faultinject: clause %q: empty device name", clause)
			}
			if devSeen[name] {
				return nil, fmt.Errorf("faultinject: device %q targeted by more than one clause", name)
			}
			devSeen[name] = true
			fs, err := parseFaults(faults, targetDevice)
			if err != nil {
				return nil, fmt.Errorf("faultinject: clause %q: %w", clause, err)
			}
			spec.Devices = append(spec.Devices, DeviceClause{Device: name, Faults: fs})
		case strings.HasPrefix(target, "link="):
			a, b, err := parseLinkTarget(strings.TrimPrefix(target, "link="))
			if err != nil {
				return nil, fmt.Errorf("faultinject: clause %q: %w", clause, err)
			}
			key := [2]int{a, b}
			if linkSeen[key] {
				return nil, fmt.Errorf("faultinject: link %d-%d targeted by more than one clause", a, b)
			}
			linkSeen[key] = true
			fs, err := parseFaults(faults, targetLink)
			if err != nil {
				return nil, fmt.Errorf("faultinject: clause %q: %w", clause, err)
			}
			spec.Links = append(spec.Links, LinkClause{A: a, B: b, Faults: fs})
		case strings.HasPrefix(target, "node="):
			idx, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(target, "node=")))
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("faultinject: clause %q: node target wants a non-negative index", clause)
			}
			if nodeSeen[idx] {
				return nil, fmt.Errorf("faultinject: node %d targeted by more than one clause", idx)
			}
			nodeSeen[idx] = true
			fs, err := parseFaults(faults, targetNode)
			if err != nil {
				return nil, fmt.Errorf("faultinject: clause %q: %w", clause, err)
			}
			spec.Nodes = append(spec.Nodes, NodeClause{Node: idx, Faults: fs})
		default:
			return nil, fmt.Errorf("faultinject: clause %q: target must start with dev=, link=, or node=", clause)
		}
	}
	return spec, nil
}

// parseLinkTarget parses "A-B" into a normalized (low, high) node pair.
func parseLinkTarget(s string) (int, int, error) {
	as, bs, ok := strings.Cut(strings.TrimSpace(s), "-")
	if !ok {
		return 0, 0, fmt.Errorf("link target %q: want NODE-NODE", s)
	}
	a, err := strconv.Atoi(strings.TrimSpace(as))
	if err != nil {
		return 0, 0, fmt.Errorf("link target %q: bad node %q", s, as)
	}
	b, err := strconv.Atoi(strings.TrimSpace(bs))
	if err != nil {
		return 0, 0, fmt.Errorf("link target %q: bad node %q", s, bs)
	}
	if a < 0 || b < 0 {
		return 0, 0, fmt.Errorf("link target %q: node indices must be >= 0", s)
	}
	if a == b {
		return 0, 0, fmt.Errorf("link target %q: nodes must differ", s)
	}
	if a > b {
		a, b = b, a
	}
	return a, b, nil
}

// targetKind classifies a clause target so fault validation can tell
// devices, links, and whole nodes apart.
type targetKind uint8

const (
	targetDevice targetKind = iota
	targetLink
	targetNode
)

// parseFaults parses a comma-separated fault list for one clause.
func parseFaults(s string, tgt targetKind) ([]Fault, error) {
	var out []Fault
	seen := make(map[FaultKind]bool)
	for _, raw := range strings.Split(s, ",") {
		fs := strings.TrimSpace(raw)
		if fs == "" {
			return nil, fmt.Errorf("empty fault")
		}
		f, err := parseFault(fs, tgt)
		if err != nil {
			return nil, err
		}
		if seen[f.Kind] {
			return nil, fmt.Errorf("fault %q: %s specified twice for one target", fs, f.Kind)
		}
		seen[f.Kind] = true
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no faults")
	}
	// Canonical order so Spec.String is stable regardless of input order.
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out, nil
}

// parseFault parses one fault term.
func parseFault(s string, tgt targetKind) (Fault, error) {
	// crash takes "@DUR" (exact instant) or "@FROM..TO" (instant drawn
	// from the window at arm time) — the single-DUR form would trip
	// splitWindow's @FROM..TO requirement, so handle it first.
	if body, when, hasAt := strings.Cut(s, "@"); strings.TrimSpace(body) == "crash" {
		if tgt == targetLink {
			return Fault{}, fmt.Errorf("fault %q: crash does not apply to links (use drop/stall)", s)
		}
		if !hasAt {
			return Fault{}, fmt.Errorf("fault %q: crash requires @T or @FROM..TO", s)
		}
		f := Fault{Kind: FaultCrash}
		if strings.Contains(when, "..") {
			_, win, err := splitWindow(s)
			if err != nil {
				return Fault{}, err
			}
			f.Win = win
		} else {
			at, err := parseDur(strings.TrimSpace(when))
			if err != nil || at <= 0 {
				return Fault{}, fmt.Errorf("fault %q: crash wants a positive instant or @FROM..TO window", s)
			}
			f.At = at
		}
		return f, nil
	}
	body, win, err := splitWindow(s)
	if err != nil {
		return Fault{}, err
	}
	name, val, hasVal := strings.Cut(body, "=")
	name = strings.TrimSpace(name)
	val = strings.TrimSpace(val)
	var f Fault
	f.Win = win
	switch name {
	case "errate", "drop":
		f.Kind = FaultErrRate
		if name == "drop" {
			f.Kind = FaultDrop
		}
		if !hasVal {
			return Fault{}, fmt.Errorf("fault %q: want %s=PROB", s, name)
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return Fault{}, fmt.Errorf("fault %q: probability must be in [0,1]", s)
		}
		f.P = p
	case "degrade":
		f.Kind = FaultDegrade
		if !hasVal {
			return Fault{}, fmt.Errorf("fault %q: want degrade=FACTOR", s)
		}
		factor, err := strconv.ParseFloat(val, 64)
		if err != nil || factor < 1 {
			return Fault{}, fmt.Errorf("fault %q: degrade factor must be >= 1", s)
		}
		f.Factor = factor
	case "outage":
		f.Kind = FaultOutage
		if hasVal {
			return Fault{}, fmt.Errorf("fault %q: outage takes no value, only a window", s)
		}
		if win.always() {
			return Fault{}, fmt.Errorf("fault %q: outage requires a @FROM..TO window", s)
		}
	case "stall":
		f.Kind = FaultStall
		if !hasVal {
			return Fault{}, fmt.Errorf("fault %q: want stall=DUR", s)
		}
		d, err := parseDur(val)
		if err != nil || d <= 0 {
			return Fault{}, fmt.Errorf("fault %q: stall wants a positive duration", s)
		}
		f.Stall = d
	default:
		return Fault{}, fmt.Errorf("fault %q: unknown fault %q", s, name)
	}
	switch tgt {
	case targetLink:
		if f.Kind != FaultDrop && f.Kind != FaultStall {
			return Fault{}, fmt.Errorf("fault %q: %s does not apply to links (use drop/stall)", s, f.Kind)
		}
	case targetNode:
		// crash returned early above, so anything else is illegal here.
		return Fault{}, fmt.Errorf("fault %q: node clauses accept only crash", s)
	default:
		if f.Kind == FaultDrop || f.Kind == FaultStall {
			return Fault{}, fmt.Errorf("fault %q: %s does not apply to devices (use errate/degrade/outage/crash)", s, f.Kind)
		}
	}
	return f, nil
}

// splitWindow splits "body@FROM..TO" into body and window.
func splitWindow(s string) (string, Window, error) {
	body, ws, ok := strings.Cut(s, "@")
	if !ok {
		return strings.TrimSpace(s), Window{}, nil
	}
	froms, tos, ok := strings.Cut(ws, "..")
	if !ok {
		return "", Window{}, fmt.Errorf("fault %q: window wants @FROM..TO", s)
	}
	from, err := parseDur(strings.TrimSpace(froms))
	if err != nil {
		return "", Window{}, fmt.Errorf("fault %q: bad window start: %v", s, err)
	}
	to, err := parseDur(strings.TrimSpace(tos))
	if err != nil {
		return "", Window{}, fmt.Errorf("fault %q: bad window end: %v", s, err)
	}
	if from < 0 || to <= from {
		return "", Window{}, fmt.Errorf("fault %q: window wants 0 <= FROM < TO", s)
	}
	return strings.TrimSpace(body), Window{From: from, To: to}, nil
}

// parseDur converts a Go duration literal to sim.Time.
func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return sim.Time(d.Nanoseconds()), nil
}

// durString renders a sim.Time as a Go duration literal.
func durString(t sim.Time) string { return time.Duration(t).String() }

// probString renders a float without a trailing exponent mess.
func probString(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }
