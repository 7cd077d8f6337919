package mgmt

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// DecisionKind classifies a manager decision-log entry.
type DecisionKind uint8

const (
	// DecisionEpoch records one management window's per-store view.
	DecisionEpoch DecisionKind = iota
	// DecisionMigrate records a migration launch.
	DecisionMigrate
	// DecisionSkip records a cost/benefit rejection.
	DecisionSkip
	// DecisionComplete records a migration completion.
	DecisionComplete
	// DecisionPlace records an initial placement (Eq. 4).
	DecisionPlace
	// DecisionAbort records a migration unwinding after exhausting its
	// copy retry budget (and the unwind's completion).
	DecisionAbort
	// DecisionQuarantine records a datastore crossing the error-rate
	// threshold and leaving the placement/candidate pool.
	DecisionQuarantine
	// DecisionEvacuate records an evacuation migration launched to move a
	// VMDK off a quarantined store.
	DecisionEvacuate
	// DecisionReadmit records a quarantined store completing probation and
	// rejoining the pool.
	DecisionReadmit
	// DecisionSLO records a tail-latency SLO violation window reported by
	// the observability layer (internal/mgmt/slo) — the signal a future
	// tail-aware balancing policy will consume.
	DecisionSLO
	// DecisionCrash records a power-loss event reaching the manager:
	// volatile migration state for the affected scope is torn down and
	// recovery begins (DESIGN.md §13).
	DecisionCrash
	// DecisionRecover records the per-migration recovery verdict after a
	// crash: journal replay chose to resume the move forward or roll it
	// back to the source.
	DecisionRecover
)

// String names the kind.
func (k DecisionKind) String() string {
	switch k {
	case DecisionEpoch:
		return "epoch"
	case DecisionMigrate:
		return "migrate"
	case DecisionSkip:
		return "skip"
	case DecisionComplete:
		return "complete"
	case DecisionPlace:
		return "place"
	case DecisionAbort:
		return "abort"
	case DecisionQuarantine:
		return "quarantine"
	case DecisionEvacuate:
		return "evacuate"
	case DecisionReadmit:
		return "readmit"
	case DecisionSLO:
		return "slo"
	case DecisionCrash:
		return "crash"
	case DecisionRecover:
		return "recover"
	default:
		return fmt.Sprintf("decision(%d)", uint8(k))
	}
}

// Stage identifies the management step that recorded a decision; the
// decision log prefixes the kind with it (e.g. "plan/migrate").
type Stage uint8

const (
	// StageNone marks a decision recorded outside the epoch loop; it
	// renders as the bare decision kind.
	StageNone Stage = iota
	// StageObserve is the window-collection step.
	StageObserve
	// StagePlan is the decision step (failure pre-pass, copy re-gating,
	// balancing, and initial placement).
	StagePlan
	// StageExecute is the migration copy engine.
	StageExecute
)

// String names the stage ("" for StageNone).
func (s Stage) String() string {
	switch s {
	case StageObserve:
		return "observe"
	case StagePlan:
		return "plan"
	case StageExecute:
		return "execute"
	default:
		return ""
	}
}

// Decision is one entry in the manager's decision log — the audit trail
// experiments and operators use to explain *why* data moved.
type Decision struct {
	At   sim.Time
	Kind DecisionKind
	// Stage attributes the decision to the step that produced it
	// (StageNone for entries recorded outside the epoch loop; those
	// render as the bare kind).
	Stage Stage
	// VMDK is the subject disk (-1 for epoch entries).
	VMDK int
	// Src and Dst name the stores involved ("" when not applicable).
	Src, Dst string
	// Detail is a short human-readable explanation.
	Detail string
}

// String renders one entry, prefixing the kind with its stage when
// attributed (e.g. "plan/migrate").
func (d Decision) String() string {
	loc := ""
	if d.Src != "" || d.Dst != "" {
		loc = fmt.Sprintf(" %s→%s", d.Src, d.Dst)
	}
	id := ""
	if d.VMDK >= 0 {
		id = fmt.Sprintf(" vmdk%d", d.VMDK)
	}
	kind := d.Kind.String()
	if d.Stage != StageNone {
		kind = d.Stage.String() + "/" + kind
	}
	return fmt.Sprintf("[%v] %s%s%s %s", d.At, kind, id, loc, d.Detail)
}

// DecisionLog is a bounded ring of manager decisions: production-length
// runs keep at most Cap entries in memory, overwriting the oldest and
// counting what was dropped. The zero value is disabled; enable with
// SetCapacity (Manager does this from Config.DecisionLogCap).
type DecisionLog struct {
	entries []Decision
	next    int
	full    bool
	enabled bool
	dropped uint64
}

// SetCapacity enables the log with space for n entries (older entries are
// overwritten). n <= 0 disables it. The drop counter resets.
func (l *DecisionLog) SetCapacity(n int) {
	if n <= 0 {
		*l = DecisionLog{}
		return
	}
	l.entries = make([]Decision, n)
	l.next = 0
	l.full = false
	l.enabled = true
	l.dropped = 0
}

// Cap returns the ring capacity (0 when disabled).
func (l *DecisionLog) Cap() int { return len(l.entries) }

// Len returns the number of retained entries.
func (l *DecisionLog) Len() int {
	if l.full {
		return len(l.entries)
	}
	return l.next
}

// Dropped returns how many entries have been overwritten since the last
// SetCapacity — the signal that the cap is too small for the run length.
func (l *DecisionLog) Dropped() uint64 { return l.dropped }

// add appends one entry (no-op when disabled).
func (l *DecisionLog) add(d Decision) {
	if !l.enabled {
		return
	}
	if l.full {
		l.dropped++
	}
	l.entries[l.next] = d
	l.next++
	if l.next == len(l.entries) {
		l.next = 0
		l.full = true
	}
}

// Entries returns the recorded decisions, oldest first.
func (l *DecisionLog) Entries() []Decision {
	if !l.enabled {
		return nil
	}
	if !l.full {
		return append([]Decision(nil), l.entries[:l.next]...)
	}
	out := make([]Decision, 0, len(l.entries))
	out = append(out, l.entries[l.next:]...)
	out = append(out, l.entries[:l.next]...)
	return out
}

// String renders the whole log.
func (l *DecisionLog) String() string {
	var b strings.Builder
	for _, d := range l.Entries() {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Log returns the manager's decision log, sized by Config.DecisionLogCap
// at construction (callers may re-size with SetCapacity).
func (m *Manager) Log() *DecisionLog { return &m.log }

// NoteSLOViolation records one SLO violation in the decision log — the
// bridge from the observability layer's per-window evaluation into the
// manager's audit trail. Src carries the violating key (a store name or
// "vmdk<id>"); the entry is attributed to the observe stage since that
// is where a tail-aware policy would act on it.
func (m *Manager) NoteSLOViolation(at sim.Time, key, detail string) {
	m.logDecision(Decision{At: at, Kind: DecisionSLO, Stage: StageObserve, VMDK: -1, Src: key, Detail: detail})
}
