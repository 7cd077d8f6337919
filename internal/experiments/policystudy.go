package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mgmt"
	"repro/internal/mgmt/policy"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// PolicyStudyRow is one scheme's outcome in a policy study.
type PolicyStudyRow struct {
	Scheme string
	// Composition is the scheme's name-less policy spec (Scheme.Describe).
	Composition string
	// Custom marks the row coming from the user's spec rather than the
	// canonical lineup.
	Custom        bool
	MeanLatencyUS float64
	Migration     mgmt.Stats
}

// PolicyStudyResult compares a custom policy spec against the canonical
// scheme lineup on the Fig. 12 single-node interference mix (big data +
// 429.mcf, MemScale 4) — the scenario where the estimate, gate, and
// exec choices all visibly matter. It is not part of the
// experiment matrix, so the matrix's golden digests are unaffected.
type PolicyStudyResult struct {
	Spec string
	Rows []PolicyStudyRow
}

// PolicyStudy parses spec (see internal/mgmt/policy) and runs it next to
// the canonical lineup under identical conditions.
func PolicyStudy(spec string, scale Scale, model *perfmodel.Model) (PolicyStudyResult, error) {
	custom, err := policy.Parse(spec)
	if err != nil {
		return PolicyStudyResult{}, err
	}
	res := PolicyStudyResult{Spec: spec}
	type entry struct {
		sch    mgmt.Scheme
		custom bool
	}
	entries := []entry{{custom, true}}
	for _, sch := range mgmt.AllSchemes() {
		entries = append(entries, entry{sch, false})
	}
	for _, e := range entries {
		sys, err := core.NewSystem(core.Options{
			Scheme:           e.sch,
			MemProfile:       "429.mcf",
			MemScale:         4,
			Mgmt:             mgmtCfg(),
			MemPhasePeriod:   80 * sim.Millisecond,
			Seed:             31,
			Model:            model,
			FootprintDivisor: scale.FootprintDivisor,
			NoHDDPlacement:   true,
			Scope:            scale.Scope,
		})
		if err != nil {
			return res, err
		}
		sys.Run(scale.RunTime)
		rep := sys.Report()
		res.Rows = append(res.Rows, PolicyStudyRow{
			Scheme:        e.sch.Name,
			Composition:   e.sch.Describe(),
			Custom:        e.custom,
			MeanLatencyUS: rep.MeanLatencyUS,
			Migration:     rep.Migration,
		})
	}
	return res, nil
}

// String renders the study, custom row first and marked with '*'.
func (r PolicyStudyResult) String() string {
	t := &table{header: []string{"scheme", "composition", "mean latency", "migrations", "skipped", "copied"}}
	for _, row := range r.Rows {
		name := row.Scheme
		if row.Custom {
			name = "*" + name
		}
		t.add(name, row.Composition, us(row.MeanLatencyUS),
			fmt.Sprintf("%d", row.Migration.MigrationsStarted),
			fmt.Sprintf("%d", row.Migration.MigrationsSkipped),
			fmt.Sprintf("%dMB", row.Migration.BytesCopied>>20))
	}
	return fmt.Sprintf("policy study: %q vs canonical lineup (single node + 429.mcf)\n%s", r.Spec, t.String())
}
