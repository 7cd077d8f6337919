// Package policy parses textual management-policy specs into
// mgmt.Scheme values. A spec is either a canonical scheme name (the
// lineup the paper evaluates) or a comma-separated key=value list, one
// key per Scheme field:
//
//	name=LABEL           display name (default: the spec itself)
//	est=measured|predicted
//	gate=none|proposal|copy
//	exec=copy|redirect
//	tag=off|on
//
// est selects the Eq. 5 estimate (measured window latency versus
// the contention-stripping model prediction). gate places the Eq. 6–7
// cost/benefit test: nowhere, at migration proposal time (Pesto), or on
// the background copy each epoch (lazy migration — requires
// exec=redirect, since pausing an eager copy would stall writes that
// redirection is supposed to absorb). exec selects the migration
// mechanism, and tag marks migration traffic ClassMigrated so the §5.3
// architectural optimizations engage. Each key may appear at most once.
//
// Examples: "bca-lazy"; "est=predicted,exec=redirect,gate=copy,tag=on"
// (the full proposal); "est=measured,gate=proposal" (Pesto).
package policy

import (
	"fmt"
	"strings"

	"repro/internal/mgmt"
)

// Names lists the canonical scheme names Parse accepts, in evaluation
// order.
func Names() []string {
	return []string{"basil", "pesto", "lightsrm", "bca", "bca-lazy", "full"}
}

// Parse resolves a policy spec — a canonical scheme name or a k=v
// list — into a Scheme.
func Parse(spec string) (mgmt.Scheme, error) {
	trimmed := strings.TrimSpace(spec)
	switch strings.ToLower(trimmed) {
	case "basil":
		return mgmt.BASIL(), nil
	case "pesto":
		return mgmt.Pesto(), nil
	case "lightsrm":
		return mgmt.LightSRM(), nil
	case "bca":
		return mgmt.BCA(), nil
	case "bca-lazy", "bcalazy":
		return mgmt.BCALazy(), nil
	case "full":
		return mgmt.Full(), nil
	case "":
		return mgmt.Scheme{}, fmt.Errorf("policy: empty spec")
	}
	if !strings.Contains(trimmed, "=") {
		return mgmt.Scheme{}, fmt.Errorf("policy: unknown scheme %q (known: %s; or a k=v policy spec)",
			trimmed, strings.Join(Names(), "|"))
	}
	return parseSpec(trimmed)
}

// parseSpec assembles a Scheme from a k=v list; unset keys keep the
// zero Scheme's (BASIL's) choices.
func parseSpec(spec string) (mgmt.Scheme, error) {
	s := mgmt.Scheme{Name: spec}
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return mgmt.Scheme{}, fmt.Errorf("policy: %q is not key=value", part)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		if seen[k] {
			return mgmt.Scheme{}, fmt.Errorf("policy: key %q given twice", k)
		}
		seen[k] = true
		switch k {
		case "name":
			if v == "" {
				return mgmt.Scheme{}, fmt.Errorf("policy: empty name")
			}
			s.Name = v
		case "est":
			if v != "measured" && v != "predicted" {
				return mgmt.Scheme{}, fmt.Errorf("policy: est=%q (want measured|predicted)", v)
			}
			s.Predicted = v == "predicted"
		case "gate":
			switch v {
			case "none":
				s.Gate = mgmt.GateNone
			case "proposal":
				s.Gate = mgmt.GateProposal
			case "copy":
				s.Gate = mgmt.GateCopy
			default:
				return mgmt.Scheme{}, fmt.Errorf("policy: gate=%q (want none|proposal|copy)", v)
			}
		case "exec":
			if v != "copy" && v != "redirect" {
				return mgmt.Scheme{}, fmt.Errorf("policy: exec=%q (want copy|redirect)", v)
			}
			s.Redirect = v == "redirect"
		case "tag":
			if v != "off" && v != "on" {
				return mgmt.Scheme{}, fmt.Errorf("policy: tag=%q (want off|on)", v)
			}
			s.Tagged = v == "on"
		default:
			return mgmt.Scheme{}, fmt.Errorf("policy: unknown key %q (want name|est|gate|exec|tag)", k)
		}
	}
	if err := s.Validate(); err != nil {
		return mgmt.Scheme{}, fmt.Errorf("policy: %w", err)
	}
	return s, nil
}
