package mgmt

import (
	"fmt"

	"repro/internal/telemetry"
)

// startMigration allocates the destination extent and begins copying,
// redirecting upcoming writes when the scheme says so. The started
// counter lives here — not in balance or evacuate — so budget
// conservation holds for every launch path (balancing, evacuation,
// direct test harnesses). The intent record persists before the first
// block moves.
func (m *Manager) startMigration(v *VMDK, dst *Datastore) error {
	base, err := dst.allocExtent(v.Size)
	if err != nil {
		return err
	}
	v.beginMigration(m.eng, dst, base, m.scheme.Redirect)
	m.stats.MigrationsStarted++
	v.jn.appendSync(JournalRecord{Kind: JournalIntent,
		Src: v.src.Dev.Name(), Dst: dst.Dev.Name(),
		DstBase: base, Redirect: m.scheme.Redirect})
	mig := newMigration(m, v, v.src, dst)
	m.active = append(m.active, mig)
	mig.pump()
	return nil
}

// migrationAborted removes an unwound migration from the active set. The
// abort itself (and its reason) was logged when the unwind began; this
// logs the unwind's completion.
func (m *Manager) migrationAborted(mig *Migration) {
	for i, a := range m.active {
		if a == mig {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	mig.v.jn.appendSync(JournalRecord{Kind: JournalDone})
	m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionAbort, Stage: StageExecute, VMDK: mig.v.ID,
		Src: mig.src.Dev.Name(), Dst: mig.dst.Dev.Name(),
		Detail: fmt.Sprintf("unwind complete in %v; VMDK consistent on source", mig.finishedAt-mig.startedAt)})
	if m.tr != nil {
		m.tr.Complete(m.migTrack, mig.v.spanName(true), "migration",
			mig.startedAt, mig.finishedAt,
			telemetry.S("src", mig.src.Dev.Name()), telemetry.S("dst", mig.dst.Dev.Name()))
	}
}

// migrationDone removes the finished migration and records stats.
func (m *Manager) migrationDone(mig *Migration) {
	for i, a := range m.active {
		if a == mig {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	mig.v.jn.appendSync(JournalRecord{Kind: JournalCommit})
	m.stats.MigrationsCompleted++
	// BytesCopied accrues per chunk as copies land (partial migrations
	// count); only the redirected complement is known at completion.
	m.stats.BytesMirrored += mig.mirroredBytes()
	m.stats.MigrationTime += mig.finishedAt - mig.startedAt
	m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionComplete, Stage: StageExecute, VMDK: mig.v.ID,
		Src: mig.src.Dev.Name(), Dst: mig.dst.Dev.Name(),
		Detail: fmt.Sprintf("copied %dMB in %v", mig.copiedBytes>>20, mig.finishedAt-mig.startedAt)})
	if m.tr != nil {
		m.tr.Complete(m.migTrack, mig.v.spanName(false), "migration",
			mig.startedAt, mig.finishedAt,
			telemetry.S("src", mig.src.Dev.Name()), telemetry.S("dst", mig.dst.Dev.Name()),
			telemetry.I("copied_bytes", mig.copiedBytes))
	}
}
