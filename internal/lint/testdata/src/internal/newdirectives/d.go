// Package newdirectives exercises //lint:ignore against every
// interprocedural check — walltimereach, indexsync, journalfence,
// floatorder — including one directive suppressing two checks on the
// same line, plus the malformed declaration directives (guarded-by with
// no list, ack-path with no reason, a guarded-by floating away from any
// field), each reported under the unsuppressible "directive"
// pseudo-check.
package newdirectives

// ticker mirrors wallreach.Ticker: CHA resolves Tick to the wall-clock
// reading cmd/progress implementation.
type ticker interface {
	Tick()
}

// Journal mirrors the crash journal's append family.
type Journal struct {
	n int
}

// appendSync is the raw append a fenced path must not call.
func (j *Journal) appendSync() {
	j.n++
}

// appendProbe is a raw append that reports success, so a single
// statement can both write a guarded field and append raw.
func (j *Journal) appendProbe() bool {
	j.n++
	return true
}

// AppendIfEpoch is the blessed fence.
func (j *Journal) AppendIfEpoch(ep uint64) bool {
	if ep == 0 {
		j.appendSync()
	}
	return ep == 0
}

// Store carries one guarded field and one malformed declaration.
type Store struct {
	// quarantined's guard declaration is valid; the rogue write below is
	// suppressed.
	//lint:guarded-by setQuarantined
	quarantined bool
	// key's declaration is malformed — no function list — so it guards
	// nothing and is itself a directive finding.
	//lint:guarded-by
	key float64
}

// setQuarantined is the canonical writer.
func (s *Store) setQuarantined(q bool) {
	s.quarantined = q
}

// Drive is the ack root and commits one violation of each new check,
// every one suppressed with a reasoned //lint:ignore. The quarantine
// write and the raw append share one statement so a single directive
// can name both checks.
//
//lint:ack-path fixture: Drive acks writes, so its cone is fence-checked
func Drive(t ticker, s *Store, j *Journal, m map[string]float64) float64 {
	//lint:ignore walltimereach fixture: progress callback sanctioned in this harness
	t.Tick()
	//lint:ignore indexsync,journalfence fixture: one directive may cover several checks on a line
	s.quarantined = j.appendProbe()
	total := 0.0
	for _, v := range m {
		//lint:ignore floatorder fixture: tolerance-tested aggregate, order-insensitive here
		total += v
	}
	return total
}

// Broken's ack-path declaration is missing its mandatory reason: a
// directive finding, and Broken is not an ack root.
//
//lint:ack-path
func Broken(j *Journal) {
	j.appendSync()
}

//lint:guarded-by setQuarantined

// The floating guarded-by above is attached to no struct field: a
// misplaced-directive finding.

// Quarantine flips the guarded field through its canonical writer.
func Quarantine(s *Store) { s.setQuarantined(true) }
