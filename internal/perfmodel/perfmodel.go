// Package perfmodel implements the paper's §4: the black-box device
// performance model PP = f(WC) (Eq. 1–2) trained with a regression tree
// over workload characteristics, and the bus-contention estimate
// BC = MP − PP (Eq. 3).
//
// A Monitor wraps a device and measures the WC vector and mean latency
// (MP) per management window; a Model trained on contention-free samples
// predicts what the latency *should* be (PP); the difference attributes
// the bus-contention delay that NVDIMM devices suffer on the shared
// memory channel.
package perfmodel

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/mlmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Predictor predicts mean device latency (µs) from workload
// characteristics. Implemented by the regression-tree model, the plain
// linear model, and the Pesto-style aggregation model (ablations §4.4).
type Predictor interface {
	PredictUS(wc trace.WC) float64
}

// Model is the paper's regression-tree performance model.
type Model struct {
	tree *mlmodel.Tree
}

// TrainModel fits the regression tree on (WC, latency µs) samples.
func TrainModel(ds mlmodel.Dataset, cfg mlmodel.TreeConfig) (*Model, error) {
	tree, err := mlmodel.Train(ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: %w", err)
	}
	return &Model{tree: tree}, nil
}

// PredictUS implements Predictor.
func (m *Model) PredictUS(wc trace.WC) float64 {
	p := m.tree.Predict(wc.Features())
	if p < 0 {
		p = 0
	}
	return p
}

// Tree exposes the underlying tree (for rendering, Fig. 6).
func (m *Model) Tree() *mlmodel.Tree { return m.tree }

// ContentionUS is the bus-contention component of a measured latency
// (Eq. 3): BC = MP − PP, clamped at zero.
func ContentionUS(measuredUS, predictedUS float64) float64 {
	bc := measuredUS - predictedUS
	if bc < 0 {
		return 0
	}
	return bc
}

// LinearModel is the plain multiple-linear-regression ablation.
type LinearModel struct {
	lin *mlmodel.Linear
}

// TrainLinearModel fits MLR on the dataset.
func TrainLinearModel(ds mlmodel.Dataset) (*LinearModel, error) {
	lin, err := mlmodel.FitLinear(ds.Samples)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: %w", err)
	}
	return &LinearModel{lin: lin}, nil
}

// PredictUS implements Predictor.
func (m *LinearModel) PredictUS(wc trace.WC) float64 {
	p := m.lin.Predict(wc.Features())
	if p < 0 {
		p = 0
	}
	return p
}

// AggregationModel is the Pesto-style OIO-only ablation (§4.4: "the
// aggregation model is based on the outstanding IOs only").
type AggregationModel struct {
	agg *mlmodel.Aggregation
}

// oioFeatureIndex is the position of OIOs in trace.WC.Features().
const oioFeatureIndex = 1

// TrainAggregationModel fits the OIO-only model.
func TrainAggregationModel(ds mlmodel.Dataset) (*AggregationModel, error) {
	agg, err := mlmodel.FitAggregation(ds.Samples, oioFeatureIndex)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: %w", err)
	}
	return &AggregationModel{agg: agg}, nil
}

// PredictUS implements Predictor.
func (m *AggregationModel) PredictUS(wc trace.WC) float64 {
	p := m.agg.Predict(wc.Features())
	if p < 0 {
		p = 0
	}
	return p
}

// Monitor wraps a device, observing every request to produce per-window
// WC vectors and measured performance. It satisfies workload.Target.
type Monitor struct {
	dev      device.Device
	analyzer *trace.Analyzer
	inflight int
	// windowErrors counts failed completions; the management layer's
	// quarantine logic steers by the per-window rate.
	windowErrors int

	free sim.FreeList[submission]
}

// submission is one request in flight through a Monitor. Its completion is
// bound once, on the record's first use, and the record is recycled just
// before done runs, so a done that submits again may reuse it.
type submission struct {
	m    *Monitor
	done device.Completion

	onDone device.Completion // bound: the device completed the request
}

// NewMonitor wraps dev.
func NewMonitor(dev device.Device) *Monitor {
	return &Monitor{dev: dev, analyzer: trace.NewAnalyzer()}
}

// Submit forwards to the device, recording issue/complete events.
func (m *Monitor) Submit(r *trace.IORequest, done device.Completion) {
	m.inflight++
	sub := m.free.Get()
	if sub.m == nil {
		sub.m = m
		sub.onDone = sub.complete
	}
	sub.done = done
	m.dev.Submit(r, sub.onDone)
	// Issue is stamped by the device; record after submission.
	m.analyzer.Issue(r, r.Issue)
}

func (sub *submission) complete(completed *trace.IORequest) {
	m, done := sub.m, sub.done
	sub.done = nil
	m.free.Put(sub)
	m.inflight--
	if completed.Err != nil {
		// A failed request occupied the device (the OIO integral must
		// advance) but its time-to-failure is not service latency.
		m.windowErrors++
		m.analyzer.Fail(completed, completed.Complete)
	} else {
		m.analyzer.Complete(completed, completed.Complete)
	}
	if done != nil {
		done(completed)
	}
}

// Barrier forwards persistence barriers when the device supports them.
func (m *Monitor) Barrier() {
	if bt, ok := m.dev.(interface{ Barrier() }); ok {
		bt.Barrier()
	}
}

// Window reports the current window's WC and measured mean latency MP
// (µs), plus the number of completed requests.
func (m *Monitor) Window() (wc trace.WC, mpUS float64, n int) {
	m.analyzer.SetFreeSpaceRatio(m.dev.FreeSpaceRatio())
	wc = m.analyzer.WC()
	mpUS = m.analyzer.MeanLatency().Micros()
	n = m.analyzer.Requests()
	return
}

// WindowErrors returns the number of failed completions in the current
// window.
func (m *Monitor) WindowErrors() int { return m.windowErrors }

// ResetWindow starts a new measurement window, carrying over the
// currently in-flight request count so the OIO integral stays correct.
func (m *Monitor) ResetWindow() {
	m.analyzer.Reset()
	m.analyzer.SeedOutstanding(m.inflight)
	m.windowErrors = 0
}

// FeatureImportance returns the trained model's per-feature importance
// (in trace.FeatureNames order, summing to 1).
func (m *Model) FeatureImportance() []float64 {
	return m.tree.FeatureImportance(len(trace.FeatureNames()))
}
