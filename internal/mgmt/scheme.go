package mgmt

import (
	"errors"
	"fmt"

	"repro/internal/trace"
)

// Gate places the Eq. 6–7 cost/benefit test in the migration lifecycle.
type Gate uint8

const (
	// GateNone never tests cost against benefit: every proposal launches
	// and every copy runs to completion.
	GateNone Gate = iota
	// GateProposal tests once, when a balancing migration is proposed
	// (Pesto): without write redirection the whole copy either starts or
	// it does not.
	GateProposal
	// GateCopy re-tests the background copy every epoch, pausing and
	// resuming it (§5.2 lazy migration). Requires Redirect.
	GateCopy
)

// String renders the gate as its policy-spec value.
func (g Gate) String() string {
	switch g {
	case GateProposal:
		return "proposal"
	case GateCopy:
		return "copy"
	default:
		return "none"
	}
}

// Scheme is one management policy: the four choices that separate the
// paper's baselines (§2.2) from its proposed designs (§5). Each field
// maps onto one key of the policy-spec grammar (internal/mgmt/policy).
// The zero Scheme is BASIL without a name.
type Scheme struct {
	// Name labels results.
	Name string
	// Predicted selects the §5.1 Eq. 5 estimate: the model-predicted
	// contention-free latency PP for NVDIMM stores instead of the
	// measured MP (policy key est=predicted).
	Predicted bool
	// Gate places the Eq. 6–7 cost/benefit test (policy key gate=).
	Gate Gate
	// Redirect sends upcoming writes to the destination instead of
	// copying them eagerly (§5.2 write redirection; exec=redirect).
	Redirect bool
	// Tagged marks migration traffic ClassMigrated so the §5.3
	// architectural optimizations engage (tag=on).
	Tagged bool
}

// BASIL is the FAST'10 baseline: online measured-latency modeling and
// load balancing, no cost-benefit analysis, full copy migration.
func BASIL() Scheme { return Scheme{Name: "BASIL"} }

// Pesto is the SoCC'11 baseline: BASIL plus cost-benefit analysis at
// proposal time.
func Pesto() Scheme { return Scheme{Name: "Pesto", Gate: GateProposal} }

// LightSRM is the ICS'15 baseline: I/O redirection instead of an eager
// full copy, with the background copy gated by cost/benefit each epoch.
func LightSRM() Scheme { return Scheme{Name: "LightSRM", Gate: GateCopy, Redirect: true} }

// BCA is the paper's bus-contention-aware management alone (§5.1): the
// contention-stripping estimate with eager full-copy migration.
func BCA() Scheme { return Scheme{Name: "BCA", Predicted: true} }

// BCALazy adds the §5.2 lazy migration (write redirection + per-epoch
// copy gating) to BCA.
func BCALazy() Scheme {
	return Scheme{Name: "BCA+Lazy", Predicted: true, Gate: GateCopy, Redirect: true}
}

// Full is the complete proposal: BCA + lazy migration + tagged migration
// traffic so the NVDIMM-side optimizations (§5.3) engage.
func Full() Scheme {
	return Scheme{Name: "BCA+Lazy+Arch", Predicted: true, Gate: GateCopy, Redirect: true, Tagged: true}
}

// AllSchemes returns the evaluation lineup.
func AllSchemes() []Scheme {
	return []Scheme{BASIL(), Pesto(), LightSRM(), BCA(), BCALazy(), Full()}
}

// Named returns a copy of the scheme carrying a different display name —
// the way ablations derive relabeled variants of a canonical scheme.
func (s Scheme) Named(name string) Scheme {
	s.Name = name
	return s
}

// NeedsModel reports whether the scheme's estimate consults a trained
// performance model (the System trains one at assembly if so).
func (s Scheme) NeedsModel() bool { return s.Predicted }

// Validate reports a scheme whose choices contradict each other: copy
// gating without write redirection.
func (s Scheme) Validate() error {
	if s.Gate == GateCopy && !s.Redirect {
		return errors.New("gate=copy requires exec=redirect (pausing an eager copy would strand writes the redirection path is meant to absorb)")
	}
	return nil
}

// Describe renders the scheme as a name-less policy spec that
// policy.Parse accepts, e.g. "est=predicted,gate=copy,exec=redirect,tag=on".
func (s Scheme) Describe() string {
	est, exec, tag := "measured", "copy", "off"
	if s.Predicted {
		est = "predicted"
	}
	if s.Redirect {
		exec = "redirect"
	}
	if s.Tagged {
		tag = "on"
	}
	return fmt.Sprintf("est=%s,gate=%s,exec=%s,tag=%s", est, s.Gate, exec, tag)
}

// MigratedClass reports the traffic class migration I/O carries.
func (s Scheme) MigratedClass() trace.Class {
	if s.Tagged {
		return trace.ClassMigrated
	}
	return trace.ClassNormal
}
