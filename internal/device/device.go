// Package device defines the common storage-device abstraction shared by
// the NVDIMM, SSD, and HDD models, plus per-device metric collection.
//
// Devices are event-driven: Submit enqueues a request and the device calls
// the completion callback at the simulated time the request finishes. All
// devices attached to one node share a single sim.Engine.
package device

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Kind identifies the device technology.
type Kind uint8

const (
	// KindNVDIMM is a flash-backed NVDIMM on the DDR bus.
	KindNVDIMM Kind = iota
	// KindSSD is a PCIe solid-state drive.
	KindSSD
	// KindHDD is a SATA rotational disk.
	KindHDD
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNVDIMM:
		return "NVDIMM"
	case KindSSD:
		return "SSD"
	case KindHDD:
		return "HDD"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Completion is called when a request finishes; the request's Complete
// field is set before the call. The request is valid only for the call:
// its submitter reuses the record once the completion returns, so an
// observer that keeps it keeps a copy.
type Completion func(*trace.IORequest)

// Device is a storage device in the heterogeneous hierarchy.
type Device interface {
	// Name returns the device's unique name within its node.
	Name() string
	// Kind returns the device technology.
	Kind() Kind
	// Capacity returns the device capacity in bytes.
	Capacity() int64
	// SetUsed records the allocated byte count (managed by the datastore
	// layer; devices use it for free-space-dependent behaviour such as GC).
	SetUsed(bytes int64)
	// FreeSpaceRatio returns free/capacity in [0,1].
	FreeSpaceRatio() float64
	// Submit enqueues a request; done is invoked at completion time.
	Submit(r *trace.IORequest, done Completion)
	// Metrics returns the device's metric collector.
	Metrics() *Metrics
}

// Metrics accumulates per-device lifetime statistics. The per-window
// measurement the storage manager steers by is the datastore's
// perfmodel.Monitor, not this collector.
type Metrics struct {
	name string

	// Lifetime counters.
	TotalReads  uint64
	TotalWrites uint64
	TotalBytes  int64
	// TotalErrors counts requests that completed with a non-nil Err (fault
	// injection or device-originated failures).
	TotalErrors uint64
	Lifetime    stats.Summary // latency in microseconds
	// LifetimeContentionUS accumulates bus-contention delay attributed to
	// this device's requests (NVDIMM only), in microseconds.
	LifetimeContentionUS float64

	// Optional telemetry hooks; all nil unless wired (zero cost when off).
	hist  *telemetry.TailHist // lifetime latency distribution, µs
	tr    *telemetry.Tracer
	track string
	tail  *telemetry.TailTracker
}

// NewMetrics returns a metric collector labelled with the device name.
func NewMetrics(name string) *Metrics { return &Metrics{name: name} }

// errSpanName is the trace span name of a failed request.
func errSpanName(op trace.Op) string {
	if op == trace.OpRead {
		return "read!err"
	}
	return "write!err"
}

// Observe records one completed request. Failed requests (r.Err != nil)
// count as errors only: their latency describes time-to-failure, not
// service, so it is excluded from the latency statistics the management
// layer steers by.
func (m *Metrics) Observe(r *trace.IORequest) {
	if r.Err != nil {
		m.TotalErrors++
		if m.tr != nil {
			m.tr.Complete(m.track, errSpanName(r.Op), "io", r.Issue, r.Complete,
				telemetry.U("req", r.ID), telemetry.I("vmdk", int64(r.VMDK)),
				telemetry.I("size", r.Size), telemetry.S("err", r.Err.Error()))
		}
		return
	}
	latUS := r.Latency().Micros()
	m.Lifetime.Add(latUS)
	m.TotalBytes += r.Size
	if r.Op == trace.OpRead {
		m.TotalReads++
	} else {
		m.TotalWrites++
	}
	if m.hist != nil {
		m.hist.Observe(latUS)
	}
	if m.tail != nil {
		m.tail.Observe(m.name, latUS)
		if r.VMDK >= 0 {
			m.tail.ObserveVMDK(r.VMDK, latUS)
		}
	}
	if m.tr != nil {
		m.tr.Complete(m.track, r.Op.String(), "io", r.Issue, r.Complete,
			telemetry.U("req", r.ID), telemetry.I("vmdk", int64(r.VMDK)),
			telemetry.I("size", r.Size), telemetry.S("class", r.Class.String()))
	}
}

// RegisterTelemetry exposes the collector under prefix (e.g.
// "node0.nvdimm."): lifetime read/write/byte counts, mean and max latency,
// accumulated bus contention, and lat_hist.p95_us, the p95 of a lifetime
// TailHist. All are gauges, read-callbacks over state the collector
// already maintains; the only hot-path cost is one TailHist.Observe per
// successful completion.
func (m *Metrics) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"reads", func() float64 { return float64(m.TotalReads) })
	reg.Gauge(prefix+"writes", func() float64 { return float64(m.TotalWrites) })
	reg.Gauge(prefix+"bytes", func() float64 { return float64(m.TotalBytes) })
	reg.Gauge(prefix+"lat_mean_us", func() float64 { return m.Lifetime.Mean() })
	reg.Gauge(prefix+"lat_max_us", func() float64 { return m.Lifetime.Max() })
	reg.Gauge(prefix+"contention_us", func() float64 { return m.LifetimeContentionUS })
	reg.Gauge(prefix+"errors", func() float64 { return float64(m.TotalErrors) })
	m.hist = &telemetry.TailHist{}
	reg.Gauge(prefix+"lat_hist.p95_us", func() float64 { return m.hist.Quantile(0.95) })
}

// SetTracer enables per-request completion spans on the given track. A
// nil tracer disables them.
func (m *Metrics) SetTracer(tr *telemetry.Tracer, track string) {
	m.tr = tr
	m.track = track
}

// SetTail routes every successful completion's latency into the tail
// tracker, keyed by device name and (when tagged) by VMDK. A nil tracker
// disables the hook.
func (m *Metrics) SetTail(t *telemetry.TailTracker) { m.tail = t }

// AddContention attributes extra bus-contention microseconds to the
// device.
func (m *Metrics) AddContention(us float64) { m.LifetimeContentionUS += us }

// ResetWindow does nothing: the collector keeps no per-window state. It
// remains only because the perfbench module's observe cell calls it at
// every window boundary.
func (m *Metrics) ResetWindow(sim.Time) {}

// String summarizes lifetime metrics.
func (m *Metrics) String() string {
	return fmt.Sprintf("%s: reads=%d writes=%d meanLat=%.1fus",
		m.name, m.TotalReads, m.TotalWrites, m.Lifetime.Mean())
}

// Base provides the bookkeeping shared by all device implementations:
// capacity accounting and metrics. Concrete devices embed it.
type Base struct {
	name     string
	kind     Kind
	capacity int64
	used     int64
	metrics  *Metrics
}

// NewBase constructs the shared device state.
func NewBase(name string, kind Kind, capacity int64) Base {
	return Base{name: name, kind: kind, capacity: capacity, metrics: NewMetrics(name)}
}

// Name implements Device.
func (b *Base) Name() string { return b.name }

// Kind implements Device.
func (b *Base) Kind() Kind { return b.kind }

// Capacity implements Device.
func (b *Base) Capacity() int64 { return b.capacity }

// Used returns the bytes currently allocated on the device.
//
//lint:ignore unreachable nvdimm TestFreeSpaceRatioReflectsFTL, mgmt TestCreateVMDKAllocates
func (b *Base) Used() int64 { return b.used }

// SetUsed implements Device.
func (b *Base) SetUsed(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	if bytes > b.capacity {
		bytes = b.capacity
	}
	b.used = bytes
}

// FreeSpaceRatio implements Device.
func (b *Base) FreeSpaceRatio() float64 {
	if b.capacity == 0 {
		return 0
	}
	return float64(b.capacity-b.used) / float64(b.capacity)
}

// Metrics implements Device.
func (b *Base) Metrics() *Metrics { return b.metrics }
