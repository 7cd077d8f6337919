// Package indexsync seeds indexsync violations: struct fields that feed
// a derived index declare their canonical writers with
// //lint:guarded-by, and any write from a function not on the list is a
// finding. Both guard forms are exercised — bare name (matches any
// receiver) and receiver-qualified Type.name.
package indexsync

// Store models a placement target whose fields feed index heaps.
type Store struct {
	// quarantined feeds index membership; only the canonical helper may
	// flip it.
	//lint:guarded-by setQuarantined
	quarantined bool
	// key is a heap key with two canonical writers: the bare markDirty
	// (any receiver) and the qualified Index.reindex.
	//lint:guarded-by Index.reindex,markDirty
	key float64
	// name is unguarded; anyone may write it.
	name string
}

// setQuarantined is the canonical quarantine writer: clean.
func (s *Store) setQuarantined(q bool) {
	s.quarantined = q
}

// markDirty matches the bare guard name: clean, including the write in
// the function literal (attributed to the enclosing named function).
func (s *Store) markDirty(k float64) {
	apply := func() {
		s.key = k
	}
	apply()
}

// Index owns the derived ordering over stores.
type Index struct {
	stores []*Store
}

// reindex matches the qualified guard Index.reindex: clean.
func (x *Index) reindex() {
	for _, s := range x.stores {
		s.key = 0
	}
}

// reindex on the wrong receiver type does not match Index.reindex: the
// write is a finding.
type Rogue struct{}

// reindex has the guarded method's name but the wrong receiver.
func (Rogue) reindex(s *Store) {
	s.key = 1
}

// Corrupt writes both guarded fields outside any guard: two findings
// (plain assignment and compound assignment). The unguarded field stays
// free.
func Corrupt(s *Store) {
	s.quarantined = true
	s.key += 0.5
	s.name = "renamed"
}

// Maintain runs every writer above, so the fixture's entry point reaches
// them; it writes no guarded field itself.
func Maintain(s *Store, x *Index) {
	s.setQuarantined(false)
	s.markDirty(0)
	x.reindex()
	Rogue{}.reindex(s)
}
