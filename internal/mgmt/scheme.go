package mgmt

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Scheme is a named composition of pipeline stages (pipeline.go),
// spanning the paper's baselines (§2.2) and its proposed designs (§5).
// Schemes are plain values copied freely between options structs, so
// every stage implementation must be stateless; cross-epoch state lives
// on the Manager. A zero or partially filled Scheme is normalized at
// NewManager: nil stages get the BASIL defaults.
type Scheme struct {
	// Name labels results.
	Name string
	// Observer collects each epoch's per-store window view.
	Observer Observer
	// Estimator produces the Eq. 5 decision latency P_d.
	Estimator PerfEstimator
	// Planner turns the epoch view into migration decisions.
	Planner Planner
	// Executor is the migration mechanism the planner launches.
	Executor Executor
}

// BASIL is the FAST'10 baseline: online measured-latency modeling and
// load balancing, no cost-benefit analysis, full copy migration.
func BASIL() Scheme {
	return Scheme{
		Name:      "BASIL",
		Observer:  SmoothingObserver{},
		Estimator: MeasuredEstimator{},
		Planner:   DefaultPlanners(false),
		Executor:  CopyExecutor{},
	}
}

// Pesto is the SoCC'11 baseline: BASIL plus cost-benefit analysis at
// proposal time.
func Pesto() Scheme {
	return Scheme{
		Name:      "Pesto",
		Observer:  SmoothingObserver{},
		Estimator: MeasuredEstimator{},
		Planner:   DefaultPlanners(true),
		Executor:  CopyExecutor{},
	}
}

// LightSRM is the ICS'15 baseline: I/O redirection instead of an eager
// full copy, with the background copy gated by cost/benefit each epoch.
func LightSRM() Scheme {
	return Scheme{
		Name:      "LightSRM",
		Observer:  SmoothingObserver{},
		Estimator: MeasuredEstimator{},
		Planner:   DefaultPlanners(false),
		Executor:  RedirectExecutor{},
	}
}

// BCA is the paper's bus-contention-aware management alone (§5.1): the
// contention-stripping estimator with eager full-copy migration.
func BCA() Scheme {
	return Scheme{
		Name:      "BCA",
		Observer:  SmoothingObserver{},
		Estimator: ContentionAwareEstimator{},
		Planner:   DefaultPlanners(false),
		Executor:  CopyExecutor{},
	}
}

// BCALazy adds the §5.2 lazy migration (write redirection + per-epoch
// copy gating) to BCA.
func BCALazy() Scheme {
	return Scheme{
		Name:      "BCA+Lazy",
		Observer:  SmoothingObserver{},
		Estimator: ContentionAwareEstimator{},
		Planner:   DefaultPlanners(false),
		Executor:  RedirectExecutor{},
	}
}

// Full is the complete proposal: BCA + lazy migration + tagged migration
// traffic so the NVDIMM-side optimizations (§5.3) engage.
func Full() Scheme {
	return Scheme{
		Name:      "BCA+Lazy+Arch",
		Observer:  SmoothingObserver{},
		Estimator: ContentionAwareEstimator{},
		Planner:   DefaultPlanners(false),
		Executor:  RedirectExecutor{Tagged: true},
	}
}

// AllSchemes returns the evaluation lineup.
func AllSchemes() []Scheme {
	return []Scheme{BASIL(), Pesto(), LightSRM(), BCA(), BCALazy(), Full()}
}

// Named returns a copy of the scheme carrying a different display name —
// the way ablations derive relabeled variants of a canonical composition.
func (s Scheme) Named(name string) Scheme {
	s.Name = name
	return s
}

// NeedsModel reports whether the scheme's estimate stage consults a
// trained performance model (the System trains one at assembly if so).
func (s Scheme) NeedsModel() bool {
	return s.Estimator != nil && s.Estimator.NeedsModel()
}

// normalized fills nil stages with the BASIL defaults so a zero or
// partially specified Scheme is directly usable.
func (s Scheme) normalized() Scheme {
	if s.Observer == nil {
		s.Observer = SmoothingObserver{}
	}
	if s.Estimator == nil {
		s.Estimator = MeasuredEstimator{}
	}
	if s.Planner == nil {
		s.Planner = DefaultPlanners(false)
	}
	if s.Executor == nil {
		s.Executor = CopyExecutor{}
	}
	return s
}

// Describe renders the stage composition in one line, e.g.
// "observe=ewma est=contention-aware plan=failure,regate,balance exec=redirect+gate+tag".
func (s Scheme) Describe() string {
	s = s.normalized()
	return fmt.Sprintf("observe=%s est=%s plan=%s exec=%s",
		describeStage(s.Observer), describeStage(s.Estimator),
		describeStage(s.Planner), describeStage(s.Executor))
}

// describeStage names one stage implementation for Describe.
func describeStage(stage any) string {
	switch v := stage.(type) {
	case SmoothingObserver:
		return "ewma"
	case MeasuredEstimator:
		return "measured"
	case ContentionAwareEstimator:
		return "contention-aware"
	case FailurePlanner:
		return "failure"
	case GatePlanner:
		return "regate"
	case BalancePlanner:
		if v.GateProposals {
			return "balance(gated)"
		}
		return "balance"
	case Planners:
		parts := make([]string, len(v))
		for i, p := range v {
			parts[i] = describeStage(p)
		}
		return strings.Join(parts, ",")
	case CopyExecutor:
		if v.Tagged {
			return "copy+tag"
		}
		return "copy"
	case RedirectExecutor:
		out := "redirect"
		if !v.Ungated {
			out += "+gate"
		}
		if v.Tagged {
			out += "+tag"
		}
		return out
	default:
		return strings.TrimPrefix(fmt.Sprintf("%T", stage), "mgmt.")
	}
}

// MigratedClass reports the traffic class the scheme's execute stage
// tags migration I/O with.
func (s Scheme) MigratedClass() trace.Class {
	return s.normalized().Executor.Class()
}
