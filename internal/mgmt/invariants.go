package mgmt

import (
	"fmt"
	"math/bits"

	"repro/internal/invariant"
)

// SetInvariants installs the structural-invariant checker. The manager
// runs it at every epoch boundary and after each crash recovery; a nil
// checker (the default) disables checking at the cost of one pointer
// test per epoch.
func (m *Manager) SetInvariants(chk *invariant.Checker) { m.inv = chk }

// checkInvariants runs the full invariant sweep when a checker is
// installed, labelling nothing — the violations carry their own context.
func (m *Manager) checkInvariants(string) {
	m.inv.Check(m.eng.Now(), m.CheckInvariants)
}

// CheckInvariants sweeps the management layer's structural invariants and
// returns every violation found (nil when consistent). The checks cover
// the DESIGN.md §13 recovery contract: no block lost or double-placed
// (bitmap/placement consistency), extent accounting, migration-budget
// conservation, and quarantine-lifecycle legality.
func (m *Manager) CheckInvariants() []invariant.Violation {
	var out []invariant.Violation
	add := func(check, subject, format string, args ...interface{}) {
		out = append(out, invariant.Violation{Check: check, Subject: subject,
			Detail: fmt.Sprintf(format, args...)})
	}

	activeByVMDK := make(map[int]*Migration, len(m.active))
	for _, mig := range m.active {
		if prev := activeByVMDK[mig.v.ID]; prev != nil {
			add("budget", fmt.Sprintf("vmdk%d", mig.v.ID), "two active migrations for one VMDK")
		}
		activeByVMDK[mig.v.ID] = mig
	}

	seen := make(map[int]string)
	for _, ds := range m.stores {
		for _, v := range ds.VMDKs() {
			subj := fmt.Sprintf("vmdk%d", v.ID)
			// Placement: a VMDK lives in exactly one store's resident map,
			// and that store is its primary.
			if prev, dup := seen[v.ID]; dup {
				add("placement", subj, "resident on both %s and %s", prev, ds.Dev.Name())
			}
			seen[v.ID] = ds.Dev.Name()
			if v.src != ds {
				add("placement", subj, "resident map says %s but primary is %s",
					ds.Dev.Name(), v.src.Dev.Name())
			}
			// Bitmap: exists iff migrating, popcount matches the migrated
			// counter, and no bit beyond the VMDK's last block is set — a
			// stray bit is a block placed nowhere or twice.
			if !v.Migrating() {
				if v.bitmap != nil || v.migrated != 0 || v.aborting || v.mirroring {
					add("bitmap", subj, "not migrating but bitmap=%v migrated=%d aborting=%v mirroring=%v",
						v.bitmap != nil, v.migrated, v.aborting, v.mirroring)
				}
				continue
			}
			pop := int64(0)
			for _, w := range v.bitmap {
				pop += int64(bits.OnesCount64(w))
			}
			if pop != v.migrated {
				add("bitmap", subj, "popcount %d != migrated counter %d", pop, v.migrated)
			}
			if v.migrated < 0 || v.migrated > v.Blocks() {
				add("bitmap", subj, "migrated %d outside [0,%d]", v.migrated, v.Blocks())
			}
			if tail := v.Blocks() % 64; tail != 0 && len(v.bitmap) > 0 {
				if v.bitmap[len(v.bitmap)-1]&^(1<<uint(tail)-1) != 0 {
					add("bitmap", subj, "bits set beyond block %d", v.Blocks())
				}
			}
			mig := activeByVMDK[v.ID]
			if mig == nil {
				add("budget", subj, "migrating but no active migration entry")
			} else {
				if mig.v.dst != mig.dst {
					add("placement", subj, "migration dst %s != VMDK dst %s",
						mig.dst.Dev.Name(), mig.v.dst.Dev.Name())
				}
				if mig.aborting != v.aborting {
					add("placement", subj, "migration aborting=%v but VMDK aborting=%v",
						mig.aborting, v.aborting)
				}
			}
		}
	}
	for _, mig := range m.active {
		subj := fmt.Sprintf("vmdk%d", mig.v.ID)
		if mig.completed {
			add("budget", subj, "completed migration still in active set")
		}
		if mig.v.src != mig.src {
			add("placement", subj, "migration src %s != VMDK primary %s",
				mig.src.Dev.Name(), mig.v.src.Dev.Name())
		}
		if !mig.v.Migrating() && !mig.completed {
			add("placement", subj, "active migration but VMDK not migrating")
		}
	}

	// Extent accounting: allocated bytes == resident sizes + incoming
	// migration extents.
	for _, ds := range m.stores {
		want := int64(0)
		for _, v := range ds.VMDKs() {
			want += v.Size
		}
		for _, mig := range m.active {
			if mig.dst == ds && !mig.completed {
				want += mig.v.Size
			}
		}
		if ds.allocated != want {
			add("extent", ds.Dev.Name(), "allocated %d != resident+incoming %d", ds.allocated, want)
		}
	}

	// Budget conservation: every started migration is completed, aborted,
	// or active — with active unwinds already counted in aborted.
	activeAborting := uint64(0)
	evacs := 0
	for _, mig := range m.active {
		if mig.aborting {
			activeAborting++
		}
		if mig.evac {
			evacs++
		}
	}
	if s := m.stats; s.MigrationsStarted !=
		s.MigrationsCompleted+s.MigrationsAborted+uint64(len(m.active))-activeAborting {
		add("budget", "manager", "started %d != completed %d + aborted %d + active %d - unwinding %d",
			s.MigrationsStarted, s.MigrationsCompleted, s.MigrationsAborted, len(m.active), activeAborting)
	}
	if n := m.balancingMigrations(); n > m.cfg.MaxConcurrentMigrations {
		add("budget", "manager", "%d balancing migrations exceed budget %d", n, m.cfg.MaxConcurrentMigrations)
	}
	if evacs > maxConcurrentEvacuations {
		add("budget", "manager", "%d evacuations exceed budget %d", evacs, maxConcurrentEvacuations)
	}

	// Quarantine lifecycle: a store still quarantined must not have served
	// its full probation, and clean-window credit only accrues while
	// quarantined.
	for _, ds := range m.stores {
		if ds.quarantined && ds.cleanWindows >= m.cfg.ProbationWindows {
			add("quarantine", ds.Dev.Name(), "quarantined with %d clean windows >= probation %d",
				ds.cleanWindows, m.cfg.ProbationWindows)
		}
		if !ds.quarantined && ds.cleanWindows != 0 && ds.quarantinedAt == 0 {
			add("quarantine", ds.Dev.Name(), "clean-window credit %d without ever quarantining", ds.cleanWindows)
		}
	}

	// Journal/bitmap agreement: for a live forward migration, every block
	// the durable journal proves migrated must be marked in the volatile
	// bitmap (the reverse may lag — lazy records settle later). Unwinding
	// migrations are skipped: revert records trail the bitmap by design.
	for _, mig := range m.active {
		if mig.aborting || mig.completed {
			continue
		}
		st := mig.v.jn.replay(mig.v.Blocks())
		if !st.live || st.aborting {
			continue
		}
		for i, w := range st.bitmap {
			if i < len(mig.v.bitmap) && w&^mig.v.bitmap[i] != 0 {
				add("journal", fmt.Sprintf("vmdk%d", mig.v.ID),
					"journal marks blocks near %d migrated but bitmap does not", i*64)
				break
			}
		}
	}
	return out
}
