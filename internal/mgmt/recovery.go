package mgmt

import (
	"fmt"
)

// CrashScope identifies what a power loss took down: a whole node
// (Device == "", Node >= 0) or a single device by name (Device != "";
// Node is advisory, -1 when unknown). The faultinject layer produces the
// event; core translates it into this scope and calls Manager.OnCrash.
type CrashScope struct {
	Node   int
	Device string
}

// covers reports whether the scope includes the datastore.
func (s CrashScope) covers(ds *Datastore) bool {
	if s.Device != "" {
		return ds.Dev.Name() == s.Device
	}
	return ds.Node == s.Node
}

// String renders the scope for logs.
func (s CrashScope) String() string {
	if s.Device != "" {
		return "dev=" + s.Device
	}
	return fmt.Sprintf("node=%d", s.Node)
}

// OnCrash is the restart path after a power loss (DESIGN.md §13): for
// every in-flight migration touching the crashed scope it discards the
// volatile bitmap, replays the durable journal to rebuild block locations,
// and then either resumes the move forward (source crashed, destination
// intact, not yet aborting) or rolls it back to the source (destination
// crashed, or the unwind was already underway). Resident VMDKs that are
// not migrating need no action — their extents live on durable media and
// only caches are lost (core drops those). A copy-gate pause does not
// survive the restart: the replacement Migration starts with its copy
// running until the next epoch re-gates it.
//
// The method runs synchronously inside the crash event, after the
// injector bumped its power-loss generation — so completions of requests
// that were in flight at the instant of the crash observe both the device
// crash and the journal epoch fence.
func (m *Manager) OnCrash(scope CrashScope) {
	m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionCrash, Stage: StageExecute, VMDK: -1,
		Detail: fmt.Sprintf("power loss %s; scanning %d active migration(s)", scope, len(m.active))})
	// Snapshot: recovery edits m.active while iterating.
	for _, mig := range append([]*Migration(nil), m.active...) {
		if mig.completed || (!scope.covers(mig.src) && !scope.covers(mig.dst)) {
			continue
		}
		m.recoverMigration(mig, scope)
	}
	m.checkInvariants("post-recovery")
}

// recoverMigration tears down one affected migration and rebuilds it from
// the journal. When replay finds no open migration for the VMDK the
// volatile bitmap is kept as-is and the same resume-or-rollback verdict
// is applied.
func (m *Manager) recoverMigration(old *Migration, scope CrashScope) {
	v := old.v
	wasAborting := old.aborting

	// Neutralize the old engine: in-flight chunk completions see
	// completed, decrement inflight, and go quiet without touching the
	// bitmap. Then fence the ack path and rebuild from durable records.
	old.completed = true
	for i, a := range m.active {
		if a == old {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	v.jn.bumpEpoch()
	st := v.jn.replay(v.Blocks())
	if st.live {
		v.bitmap = st.bitmap
		v.migrated = st.migrated
		wasAborting = wasAborting || st.aborting
	}

	rollback := wasAborting || scope.covers(old.dst)
	fresh := newMigration(m, v, old.src, old.dst)
	fresh.evac = old.evac
	m.active = append(m.active, fresh)

	if rollback {
		fresh.aborting = true
		v.beginAbort()
		if !wasAborting {
			// The forward move died with the crash; account the abort
			// exactly once so budget conservation holds.
			m.stats.MigrationsAborted++
			v.jn.appendSync(JournalRecord{Kind: JournalAbort})
		}
		m.stats.RecoveryRollbacks++
		m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionRecover, Stage: StageExecute, VMDK: v.ID,
			Src: old.src.Dev.Name(), Dst: old.dst.Dev.Name(),
			Detail: fmt.Sprintf("rollback after %s: %d/%d blocks return to source (journaled=%v)",
				scope, v.migrated, v.Blocks(), st.live)})
		fresh.pump()
		return
	}

	// Resume: the destination survived, so durable-journaled progress
	// stands. Redirection restarts per the scheme and the copy cursor
	// rescans from zero — blocks the journal proved migrated are skipped.
	v.aborting = false
	v.mirroring = m.scheme.Redirect
	m.stats.RecoveryResumes++
	m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionRecover, Stage: StageExecute, VMDK: v.ID,
		Src: old.src.Dev.Name(), Dst: old.dst.Dev.Name(),
		Detail: fmt.Sprintf("resume after %s: %d/%d blocks already at destination (journaled=%v)",
			scope, v.migrated, v.Blocks(), st.live)})
	fresh.pump()
}
