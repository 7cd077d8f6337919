package mgmt

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/perfmodel"
)

// Planner constants.
const (
	// benefitHorizonWindows is how many future management windows the
	// Eq. 7 benefit is integrated over ("Once migrated, a VMDK will be
	// operated in a relatively long time", §5.1.2).
	benefitHorizonWindows = 50
	// quarantineErrorRate is the per-window failed-completion fraction at
	// which a datastore is quarantined.
	quarantineErrorRate = 0.05
	// maxConcurrentEvacuations bounds evacuation migrations launched per
	// epoch off quarantined stores (in addition to, not gated by,
	// Config.MaxConcurrentMigrations).
	maxConcurrentEvacuations = 2
)

// plan runs one epoch's decisions over the performance vector. Order
// matters for determinism and correctness: the failure pre-pass runs
// first (so a failing store is never chosen as a destination this
// epoch), then in-flight copies are re-gated with fresh window data
// (GateCopy only), then balancing — launches from the balancing pass are
// deliberately not re-gated until the next epoch.
func (m *Manager) plan(perfs []StorePerf) {
	m.planFailures(perfs)
	if m.scheme.Gate == GateCopy {
		for _, mig := range m.active {
			mig.regate(perfs)
		}
	}
	m.balance(perfs)
}

// planFailures is the failure pre-pass: per-epoch error-rate
// thresholding into quarantine, evacuation of quarantined stores, and
// probation-based readmission (graceful degradation).
func (m *Manager) planFailures(perfs []StorePerf) {
	for i := range perfs {
		ds := perfs[i].Store
		errs := ds.Mon.WindowErrors()
		if !ds.quarantined {
			total := errs + perfs[i].Requests
			if errs >= m.cfg.QuarantineMinErrors && total > 0 &&
				float64(errs)/float64(total) >= quarantineErrorRate {
				ds.quarantined = true
				ds.quarantinedAt = m.eng.Now()
				ds.cleanWindows = 0
				m.stats.Quarantines++
				m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionQuarantine, Stage: StagePlan,
					VMDK: -1, Src: ds.Dev.Name(),
					Detail: fmt.Sprintf("%d/%d window requests failed (threshold %.0f%%)",
						errs, total, quarantineErrorRate*100)})
			}
		} else {
			if errs == 0 {
				ds.cleanWindows++
			} else {
				ds.cleanWindows = 0
			}
			if ds.cleanWindows >= m.cfg.ProbationWindows {
				ds.quarantined = false
				m.stats.Readmissions++
				m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionReadmit, Stage: StagePlan,
					VMDK: -1, Src: ds.Dev.Name(),
					Detail: fmt.Sprintf("probation served (%d clean windows)", m.cfg.ProbationWindows)})
			}
		}
		if ds.quarantined {
			m.evacuate(ds, perfs)
		}
	}
}

// evacuate launches migrations moving VMDKs off a quarantined store onto
// the best healthy store with room, bypassing the τ/hysteresis/
// cost-benefit gates — leaving a failing device is not an optimization
// decision. Evacuations count against their own concurrency budget.
func (m *Manager) evacuate(ds *Datastore, perfs []StorePerf) {
	evacs := 0
	for _, mig := range m.active {
		if mig.evac {
			evacs++
		}
	}
	for _, v := range ds.VMDKs() {
		if evacs >= maxConcurrentEvacuations {
			return
		}
		if v.Migrating() {
			continue
		}
		var dst *Datastore
		var dstPerf float64
		for i := range perfs {
			cand := perfs[i].Store
			if cand == ds || cand.quarantined || cand.Free() < v.Size {
				continue
			}
			if dst == nil || perfs[i].PerfUS < dstPerf {
				dst = cand
				dstPerf = perfs[i].PerfUS
			}
		}
		if dst == nil {
			return // nowhere healthy to go; retry next epoch
		}
		if err := m.startMigration(v, dst); err != nil {
			continue
		}
		mig := m.active[len(m.active)-1]
		mig.evac = true
		evacs++
		m.stats.Evacuations++
		v.lastMoveEpoch = m.stats.Epochs
		m.recordMove(v, ds, dst)
		m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionEvacuate, Stage: StagePlan, VMDK: v.ID,
			Src: ds.Dev.Name(), Dst: dst.Dev.Name(),
			Detail: fmt.Sprintf("evacuating quarantined store (dst %.0fus)", dstPerf)})
	}
}

// balance implements §5.1.2 load balancing: find the max/min
// stores, check the imbalance threshold τ with debouncing, pick the
// busiest candidate VMDK under the hysteresis rules, and launch the
// migration. The overloaded side only considers stores that actually
// hold active VMDKs; the destination side considers every store (idle
// ones use the technology estimate). It launches at most one migration
// per epoch and respects MaxConcurrentMigrations.
func (m *Manager) balance(perfs []StorePerf) {
	if m.balancingMigrations() >= m.cfg.MaxConcurrentMigrations {
		return
	}
	maxP, minP := pickPairSweep(m, perfs)
	if maxP == nil || minP == nil || maxP == minP {
		return
	}
	delta := maxP.Norm - minP.Norm
	if maxP.Norm <= 0 || delta/maxP.Norm <= m.cfg.Tau {
		m.imbalanceRun = 0
		return
	}
	m.imbalanceRun++
	if m.imbalanceRun < m.cfg.DebounceWindows {
		return
	}
	src, dst := maxP.Store, minP.Store

	// Candidate: the busiest non-migrating VMDK on the overloaded store
	// that fits on the destination, excluding recent movers (hysteresis).
	var cand *VMDK
	for _, v := range src.VMDKs() {
		if v.Migrating() || v.Size > dst.Free() {
			continue
		}
		if m.stats.Epochs-v.lastMoveEpoch < m.cfg.MinResidenceWindows && v.lastMoveEpoch > 0 {
			continue
		}
		if cand == nil || v.windowRequests > cand.windowRequests {
			cand = v
		}
	}
	if cand == nil || cand.windowRequests == 0 {
		return
	}

	// Proposal-time gate (GateProposal): cost/benefit decides whether
	// the migration is worth starting at all.
	if m.scheme.Gate == GateProposal {
		cost, benefit := m.costBenefit(cand, maxP, minP, cand.Size)
		if benefit <= cost {
			m.stats.MigrationsSkipped++
			m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionSkip, Stage: StagePlan, VMDK: cand.ID,
				Src: src.Dev.Name(), Dst: dst.Dev.Name(),
				Detail: fmt.Sprintf("cost %.0fus > benefit %.0fus", cost, benefit)})
			return
		}
	}
	if err := m.startMigration(cand, dst); err == nil {
		cand.lastMoveEpoch = m.stats.Epochs
		m.recordMove(cand, src, dst)
		m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionMigrate, Stage: StagePlan, VMDK: cand.ID,
			Src: src.Dev.Name(), Dst: dst.Dev.Name(),
			Detail: fmt.Sprintf("norm %.1f vs %.1f (tau %.2f)", maxP.Norm, minP.Norm, m.cfg.Tau)})
	}
}

// pickPairSweep picks the balancing pair from the epoch's performance
// vector: the highest-Norm store with resident VMDKs and enough window
// signal as the source, the lowest-PerfUS store as the destination. Ties
// go to the first store in order.
func pickPairSweep(m *Manager, perfs []StorePerf) (maxP, minP *StorePerf) {
	for i := range perfs {
		sp := &perfs[i]
		if sp.Store.Quarantined() {
			// Failure-quarantined stores are handled by evacuation; they
			// are neither a load-balancing source nor a destination.
			continue
		}
		if sp.Store.NumVMDKs() > 0 && sp.Requests >= m.cfg.MinWindowRequests {
			if maxP == nil || sp.Norm > maxP.Norm {
				maxP = sp
			}
		}
		// Destination: lowest *absolute* expected latency — a lightly
		// loaded slow device is still a bad home for hot data.
		if minP == nil || sp.PerfUS < minP.PerfUS {
			minP = sp
		}
	}
	return maxP, minP
}

// costBenefit evaluates Eq. 6 and Eq. 7 for moving v from src to dst,
// with remaining bytes still to copy. Per-unit latencies are the
// per-4KB-scaled P_d values; bus-contention terms come from MP − PP on
// NVDIMM stores when a model is available.
func (m *Manager) costBenefit(v *VMDK, src, dst *StorePerf, remaining int64) (costUS, benefitUS float64) {
	unit := func(p StorePerf) float64 {
		ios := p.WC.IOSize
		if ios < BlockSize {
			ios = BlockSize
		}
		return p.PerfUS * BlockSize / ios
	}
	bc := func(p StorePerf) float64 {
		if p.Store.Dev.Kind() != device.KindNVDIMM {
			return 0
		}
		model, ok := m.models[device.KindNVDIMM]
		if !ok {
			return 0
		}
		d := perfmodel.ContentionUS(p.MeasuredUS, model.PredictUS(p.WC))
		ios := p.WC.IOSize
		if ios < BlockSize {
			ios = BlockSize
		}
		return d * BlockSize / ios
	}

	qMig := float64(remaining) / BlockSize
	costUS = qMig * (unit(*src) + unit(*dst) + bc(*src) + bc(*dst))

	// Benefit (Eq. 7): per-request latency gain for the candidate's
	// stream once it runs at the destination, accrued over every request
	// it will issue across the benefit horizon. The destination's
	// post-migration latency is approximated by its current per-request
	// latency bumped by the share of load that moves; an idle or barely
	// loaded destination uses the technology estimate already folded into
	// PerfUS.
	share := 0.0
	if total := src.Store.WindowLoad(); total > 0 {
		share = float64(v.windowRequests) / float64(total)
	}
	dstAfter := dst.PerfUS * (1 + share)
	gain := src.PerfUS - dstAfter
	if gain < 0 {
		gain = 0
	}
	benefitUS = gain * float64(v.windowRequests) * benefitHorizonWindows
	return costUS, benefitUS
}
