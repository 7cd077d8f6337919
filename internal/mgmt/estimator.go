package mgmt

import (
	"repro/internal/device"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// smoothingAlpha is the EWMA weight applied to per-store decision
// latencies across epochs (1 would use the raw window). Smoothing
// suppresses single-window noise (cache-hit variance) while persistent
// shifts — sustained load or bus contention — still move the estimate
// within a few windows.
const smoothingAlpha = 0.5

// observe builds the epoch's per-store performance vector, in store
// order: it reads each store's window monitor, takes the Eq. 5 decision
// latency from estimateUS, substitutes the technology idle estimate when
// the window has too little signal, and EWMA-smooths the result across
// epochs (smoothingAlpha). The idle estimate is computed once per
// store and reused for both the low-signal fallback and the Norm load
// index.
//
// Every epoch sweeps every store (DESIGN.md §14): one window read and
// at most one model prediction per store.
func (m *Manager) observe() []StorePerf {
	perfs := make([]StorePerf, 0, len(m.stores))
	for _, ds := range m.stores {
		wc, mp, n := ds.Mon.Window()
		idle := idleEstimateUS(ds.Dev.Kind())
		var p float64
		if n >= m.cfg.MinWindowRequests {
			p = m.estimateUS(ds, wc, mp, n)
		} else {
			// Too little signal: estimate from the device technology so
			// an idle HDD is never mistaken for a fast destination.
			p = idle
		}
		// EWMA-smooth the decision latency across epochs.
		if prev, ok := m.smoothed[ds]; ok {
			p = smoothingAlpha*p + (1-smoothingAlpha)*prev
		}
		m.smoothed[ds] = p
		perfs = append(perfs, StorePerf{
			Store: ds, WC: wc, MeasuredUS: mp, PerfUS: p,
			Norm: p / idle, Requests: n,
		})
	}
	return perfs
}

// idleEstimateUS is the decision latency assumed for a store with too
// little window traffic to measure: the characteristic lightly-loaded
// latency of the technology (Table 1 shapes).
func idleEstimateUS(k device.Kind) float64 {
	switch k {
	case device.KindNVDIMM:
		return 100
	case device.KindSSD:
		return 350
	default: // HDD
		return 8000
	}
}

// predictor returns the NVDIMM performance model the scheme's estimate
// consults for ds, or nil when the decision latency is the measurement:
// a measured-estimate scheme, a conventional device, or no model
// installed yet.
func (m *Manager) predictor(ds *Datastore) perfmodel.Predictor {
	if !m.scheme.Predicted || ds.Dev.Kind() != device.KindNVDIMM {
		return nil
	}
	return m.models[device.KindNVDIMM]
}

// estimateUS computes the decision latency P_d of Eq. 5 for a store
// given its window characterization, measured mean latency, and request
// count. Measured schemes (BASIL/Pesto/LightSRM) use the window mean
// unchanged (P_d = MP); under bus contention that wrongly attributes
// interconnect queuing to the device — exactly the phantom the §5.1
// predicted estimate strips by returning the contention-free PP.
//
// The measured OIO feature is itself contention-polluted: bus queuing
// inflates occupancy, and feeding the inflated value to the model makes
// it predict the (legitimately slow) quiet behaviour at that depth. The
// de-confounded queue depth comes from a Little's-law fixed point: the
// arrival rate λ is demand-driven, so the quiet-equivalent occupancy is
// λ·PP, iterated to consistency and never above the measurement.
func (m *Manager) estimateUS(ds *Datastore, wc trace.WC, measuredUS float64, requests int) float64 {
	model := m.predictor(ds)
	if model == nil {
		return measuredUS
	}
	lambdaPerUS := float64(requests) / m.cfg.Window.Micros()
	// Iterate upward from depth 1 so the fixed point found is the
	// smallest consistent one — the quiet operating point — rather
	// than the contention-inflated one.
	quietWC := wc
	if quietWC.OIOs > 1 {
		quietWC.OIOs = 1
	}
	pp := model.PredictUS(quietWC)
	for i := 0; i < 4; i++ {
		est := lambdaPerUS * pp
		if est > wc.OIOs {
			est = wc.OIOs
		}
		quietWC.OIOs = est
		pp = model.PredictUS(quietWC)
	}
	// Eq. 3 defines BC = MP − PP ≥ 0, so the contention-free
	// estimate can never exceed the measurement.
	if pp > measuredUS {
		pp = measuredUS
	}
	return pp
}

// placementUS predicts the store's latency with a new VMDK of the given
// estimated characterization added (Eq. 4); currentUS is the store's
// present decision latency. With a model, the new VMDK's
// characterization is merged into the current window; without one there
// is no way to predict its effect, so the current latency stands.
func (m *Manager) placementUS(ds *Datastore, currentUS float64, est trace.WC) float64 {
	model := m.predictor(ds)
	if model == nil {
		return currentUS
	}
	merged := est
	cur, _, n := ds.Mon.Window()
	if n > 0 {
		merged.OIOs += cur.OIOs
	}
	return model.PredictUS(merged)
}
