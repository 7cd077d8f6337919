package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/memsched"
	"repro/internal/runpool"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fig9Op is one write in the §5.3.1 example schedule.
type Fig9Op struct {
	Label string
	Class trace.Class
	Start sim.Time
	End   sim.Time
}

// Fig9Schedule is the executed schedule of the paper's RA..RH example
// under one policy.
type Fig9Schedule struct {
	Policy   string
	Ops      []Fig9Op
	Makespan sim.Time
}

// Fig9Result reproduces Figs. 9 and 10: the same eight writes and three
// barriers executed under the baseline, Policy One, Policy Two, and the
// combination with the non-persistent barrier.
type Fig9Result struct {
	Schedules []Fig9Schedule
}

// fig9Case is the paper's example: RA | RB RC RD | RE | RF RG RH with
// RA, RB, RE, RF persistent and RC, RD, RG, RH migrated.
func fig9Case() []struct {
	label   string
	barrier bool
	class   trace.Class
} {
	per, mig := trace.ClassPersistent, trace.ClassMigrated
	return []struct {
		label   string
		barrier bool
		class   trace.Class
	}{
		{"RA", false, per},
		{"", true, 0},
		{"RB", false, per},
		{"RC", false, mig},
		{"RD", false, mig},
		{"", true, 0},
		{"RE", false, per},
		{"", true, 0},
		{"RF", false, per},
		{"RG", false, mig},
		{"RH", false, mig},
	}
}

// Fig9 executes the example under each policy with 100 µs writes and two
// flash channels (the figure's FC1/FC2). Each policy owns a private engine
// and scheduler, so the four schedules fan out across the run pool and
// collect by policy index.
func Fig9(scale Scale) Fig9Result {
	const opTime = 100 * sim.Microsecond
	policies := []struct {
		name string
		pol  memsched.Policy
	}{
		{"baseline (Fig. 9a)", memsched.Baseline()},
		{"Policy One (Fig. 9b)", memsched.PolicyOne()},
		{"Policy Two (Fig. 9c)", memsched.PolicyTwo()},
		{"both + NPB (Fig. 10b)", memsched.Combined(150 * sim.Microsecond)},
	}
	scheds, _ := runpool.Do(scale.Jobs, len(policies), func(p int) (Fig9Schedule, error) {
		pc := policies[p]
		eng := sim.NewEngine()
		s := memsched.New(eng, pc.pol, 2) // two channels
		sched := Fig9Schedule{Policy: pc.name}
		lpn := int64(0)
		for _, step := range fig9Case() {
			if step.barrier {
				s.Barrier()
				continue
			}
			lpn++
			label := step.label
			op := Fig9Op{Label: label, Class: step.class}
			idx := len(sched.Ops)
			sched.Ops = append(sched.Ops, op)
			s.EnqueueWrite(lpn, step.class, func(done func()) {
				sched.Ops[idx].Start = eng.Now()
				eng.Schedule(opTime, done)
			}, func() {
				sched.Ops[idx].End = eng.Now()
			})
		}
		eng.Run()
		sched.Makespan = eng.Now()
		return sched, nil
	})
	return Fig9Result{Schedules: scheds}
}

// String renders the report-text block printed under the
// "===== fig9 =====" header; the `fig9` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 9/10: the RA..RH example schedule (100us writes, 2 channels)\n")
	b.WriteString("persistent: RA RB RE RF; migrated: RC RD RG RH; barriers: RA| RB RC RD| RE| ...\n\n")
	for _, s := range r.Schedules {
		fmt.Fprintf(&b, "%s (makespan %v)\n", s.Policy, s.Makespan)
		ops := append([]Fig9Op(nil), s.Ops...)
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
		for _, op := range ops {
			tag := " "
			if op.Class == trace.ClassMigrated {
				tag = "m"
			}
			fmt.Fprintf(&b, "  %s%s %8v → %8v  %s\n", op.Label, tag, op.Start, op.End,
				timeBar(op.Start, op.End, s.Makespan))
		}
	}
	return b.String()
}

// timeBar renders a 40-column occupancy bar for [start, end) within
// [0, total).
func timeBar(start, end, total sim.Time) string {
	const width = 40
	if total <= 0 {
		return ""
	}
	s := int(float64(start) / float64(total) * width)
	e := int(float64(end) / float64(total) * width)
	if e <= s {
		e = s + 1
	}
	if e > width {
		e = width
	}
	return strings.Repeat("·", s) + strings.Repeat("█", e-s) + strings.Repeat("·", width-e)
}
