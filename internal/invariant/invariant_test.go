package invariant

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNilCheckerIsFreeAndSafe pins the cheap-when-disabled contract: every
// method of a nil *Checker no-ops, and Check never invokes its source.
func TestNilCheckerIsFreeAndSafe(t *testing.T) {
	var c *Checker
	c.Check(5, func() []Violation {
		t.Fatal("nil checker invoked its source")
		return nil
	})
	if c.Runs() != 0 || c.Violations() != nil || c.Err() != nil {
		t.Fatalf("nil checker leaked state: runs=%d", c.Runs())
	}
	if got := c.String(); got != "invariants: disabled" {
		t.Fatalf("String() = %q", got)
	}
}

// TestCheckerRecordsViolationsInOrder covers the enabled path: run census,
// time-stamped records in observation order, and Err/String summaries.
func TestCheckerRecordsViolationsInOrder(t *testing.T) {
	c := NewChecker()
	c.Check(10, func() []Violation { return nil })
	c.Check(20, func() []Violation {
		return []Violation{
			{Check: "bitmap", Subject: "vmdk3", Detail: "migrated=4 want 0"},
			{Check: "budget", Subject: "manager", Detail: "started=2 completed+aborted=1"},
		}
	})
	if c.Runs() != 2 {
		t.Fatalf("runs = %d, want 2", c.Runs())
	}
	recs := c.Violations()
	if len(recs) != 2 || recs[0].At != sim.Time(20) || recs[0].Check != "bitmap" || recs[1].Check != "budget" {
		t.Fatalf("violations = %+v", recs)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "2 violation(s)") ||
		!strings.Contains(err.Error(), "[bitmap] vmdk3") {
		t.Fatalf("Err() = %v", err)
	}
	s := c.String()
	if !strings.Contains(s, "2 checks, 2 violations") || !strings.Contains(s, "@20 [bitmap] vmdk3: migrated=4 want 0") {
		t.Fatalf("String() = %q", s)
	}
	// Violations must be a copy, not an aliased view of internal state.
	recs[0].Check = "mutated"
	if c.Violations()[0].Check != "bitmap" {
		t.Fatal("Violations() aliases internal records")
	}
}
