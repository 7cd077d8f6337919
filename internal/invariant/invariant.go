// Package invariant is the cheap-when-disabled consistency harness: a
// Checker collects structural-invariant violations reported by checker
// callbacks at epoch boundaries and after crash recovery. A nil *Checker
// is the disabled state — every method is a nil-safe no-op, so call sites
// pay one pointer test when checking is off. The checks themselves
// (bitmap/placement consistency, budget conservation, quarantine-
// lifecycle legality) live with the data structures they inspect
// (internal/mgmt); this package only owns the recording discipline, so it
// stays dependency-free and any subsystem can report into it.
package invariant

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Violation is one broken invariant: which check, on what subject, and
// the concrete numbers that broke it.
type Violation struct {
	// Check names the invariant class (e.g. "bitmap", "budget").
	Check string
	// Subject names the entity (e.g. "vmdk3", "store-a").
	Subject string
	// Detail states the expected-vs-actual facts.
	Detail string
}

// String renders the violation for failure reports.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Check, v.Subject, v.Detail)
}

// Record is a violation stamped with the sim time it was observed.
type Record struct {
	At sim.Time
	Violation
}

// Checker accumulates invariant-check runs and their violations. The nil
// receiver is the disabled state: Check does nothing and costs nothing
// beyond the nil test, honouring the cheap-when-disabled contract.
type Checker struct {
	runs    uint64
	records []Record
}

// NewChecker returns an enabled checker.
func NewChecker() *Checker { return &Checker{} }

// Check runs source and records its violations at sim time at. On a nil
// receiver the source is never invoked — the checks' cost is only paid
// when checking is enabled.
func (c *Checker) Check(at sim.Time, source func() []Violation) {
	if c == nil {
		return
	}
	c.runs++
	for _, v := range source() {
		c.records = append(c.records, Record{At: at, Violation: v})
	}
}

// Runs returns how many times Check executed a source.
func (c *Checker) Runs() uint64 {
	if c == nil {
		return 0
	}
	return c.runs
}

// Violations returns every recorded violation in observation order.
func (c *Checker) Violations() []Record {
	if c == nil {
		return nil
	}
	return append([]Record(nil), c.records...)
}

// Err returns nil when no violation was recorded, or an error summarizing
// them all.
func (c *Checker) Err() error {
	if c == nil || len(c.records) == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s), first: %s", len(c.records), c.records[0])
}

// String renders the checker's census and every violation, one per line.
func (c *Checker) String() string {
	if c == nil {
		return "invariants: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariants: %d checks, %d violations", c.runs, len(c.records))
	for _, r := range c.records {
		fmt.Fprintf(&b, "\n  @%d %s", int64(r.At), r.String())
	}
	return b.String()
}
