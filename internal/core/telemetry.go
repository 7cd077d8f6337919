package core

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/mgmt/slo"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Telemetry bundles the observability sinks for a System. Any field may be
// nil/zero: a nil Registry skips metric registration, a nil Tracer skips
// span recording (the producer-side hooks then cost nothing), and a zero
// SampleEvery disables the windowed sampler.
type Telemetry struct {
	// Registry receives every subsystem's counters, gauges, and latency
	// histograms.
	Registry *telemetry.Registry
	// Tracer receives request/migration/bus/scheduler spans.
	Tracer *telemetry.Tracer
	// Series is the sampler's row sink.
	Series *telemetry.Series
	// SampleEvery is the simulated-time sampling interval (0 = off).
	SampleEvery sim.Time
	// Tail is the tail tracker's flushed-window sink (nil = no export;
	// windows are still tracked when TailEvery > 0 for report summaries).
	Tail *telemetry.TailSeries
	// TailEvery is the tail-tracking window length (0 = tail tracking
	// off).
	TailEvery sim.Time
}

// NewTelemetry builds fresh sinks: a Tracer when traceOn, a Registry and
// a Series sampled every sampleEvery when metricsOn, and a TailSeries
// windowed every tailEvery when tailEvery > 0. It returns nil when every
// sink is off.
func NewTelemetry(traceOn, metricsOn bool, sampleEvery, tailEvery sim.Time) *Telemetry {
	if !traceOn && !metricsOn && tailEvery <= 0 {
		return nil
	}
	t := &Telemetry{}
	if traceOn {
		t.Tracer = telemetry.NewTracer()
	}
	if metricsOn {
		t.Registry = telemetry.NewRegistry()
		t.Series = &telemetry.Series{}
		t.SampleEvery = sampleEvery
	}
	if tailEvery > 0 {
		t.Tail = telemetry.NewTailSeries()
		t.TailEvery = tailEvery
	}
	return t
}

// Export writes the recorded artifacts: the trace to traceOut (Chrome
// trace JSON, or line-delimited JSON when the path ends in .jsonl), the
// sampled metrics to metricsOut and the tail windows to tailOut, both as
// CSV. An empty path skips its artifact, so a nil Telemetry exports
// nothing when every path is empty. Each written file is reported to w
// as a "wrote N …" line.
func (t *Telemetry) Export(traceOut, metricsOut, tailOut string, w io.Writer) error {
	if traceOut != "" {
		write := t.Tracer.WriteChromeTrace
		if strings.HasSuffix(traceOut, ".jsonl") {
			write = t.Tracer.WriteJSONL
		}
		if err := writeFile(traceOut, write); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		fmt.Fprintf(w, "wrote %d trace events to %s\n", t.Tracer.NumEvents(), traceOut)
	}
	if metricsOut != "" {
		if err := writeFile(metricsOut, t.Series.WriteCSV); err != nil {
			return fmt.Errorf("metrics export: %w", err)
		}
		fmt.Fprintf(w, "wrote %d metric samples to %s\n", t.Series.Len(), metricsOut)
	}
	if tailOut != "" {
		if err := writeFile(tailOut, t.Tail.WriteCSV); err != nil {
			return fmt.Errorf("tail export: %w", err)
		}
		fmt.Fprintf(w, "wrote %d tail windows to %s\n", t.Tail.Len(), tailOut)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// resolveTelemetry picks the sinks a new system should use: an explicit
// Options.Telemetry wins (single-system runs like cmd/hsmsim), otherwise
// the system adopts fresh private sinks from Options.Scope (the parallel
// harness; nil scope → uninstrumented). The old process-wide default was
// removed when the experiment matrix went parallel: a global adopted in
// construction order cannot give concurrent systems isolated sinks or
// stable numbering, which is exactly what TelemetryScope does.
func resolveTelemetry(opts Options) *Telemetry {
	if opts.Telemetry != nil {
		return opts.Telemetry
	}
	return opts.Scope.adopt()
}

// wireTelemetry attaches the sinks to every subsystem of the assembled
// system: per-node device stacks, memory interconnects, the storage
// manager, and the workload runners. Called once from NewSystem after
// placement, so all runners exist.
func (s *System) wireTelemetry(t *Telemetry) {
	if t == nil {
		return
	}
	s.tel = t
	if reg := t.Registry; reg != nil {
		for i, n := range s.Cluster.Nodes {
			np := fmt.Sprintf("node%d.", i)
			n.NVDIMM.RegisterTelemetry(reg, np+"nvdimm.")
			n.SSD.RegisterTelemetry(reg, np+"ssd.")
			n.HDD.RegisterTelemetry(reg, np+"hdd.")
			n.IC.RegisterTelemetry(reg, np+"bus.")
		}
		s.Manager.RegisterTelemetry(reg, "mgmt.")
		if s.Injector != nil {
			s.Injector.RegisterTelemetry(reg, "faults.")
		}
		for _, r := range s.Runners {
			// The runner ID keeps names unique when an app repeats in Apps.
			r.RegisterTelemetry(reg, fmt.Sprintf("wl%d.%s.", r.ID(), r.Profile().Name))
		}
		if t.SampleEvery > 0 {
			s.sampler = telemetry.NewSampler(s.Cluster.Eng, reg, t.SampleEvery, t.Series)
		}
	}
	if t.TailEvery > 0 {
		s.tailTracker = telemetry.NewTailTracker(s.Cluster.Eng, t.TailEvery, t.Tail)
		s.setTailOnDevices(s.tailTracker)
	}
	if tr := t.Tracer; tr != nil {
		for i, n := range s.Cluster.Nodes {
			np := fmt.Sprintf("node%d.", i)
			n.NVDIMM.SetTracer(tr, np+"nvdimm.")
			n.SSD.Metrics().SetTracer(tr, np+"ssd.io")
			n.HDD.Metrics().SetTracer(tr, np+"hdd.io")
			n.IC.SetTracer(tr, np+"bus.")
		}
		s.Manager.SetTracer(tr, "mgmt")
		for _, r := range s.Runners {
			r.SetTracer(tr, fmt.Sprintf("wl%d.%s", r.ID(), r.Profile().Name))
		}
	}
}

// setTailOnDevices routes every store device's completions into t.
func (s *System) setTailOnDevices(t *telemetry.TailTracker) {
	for _, n := range s.Cluster.Nodes {
		n.NVDIMM.Metrics().SetTail(t)
		n.SSD.Metrics().SetTail(t)
		n.HDD.Metrics().SetTail(t)
	}
}

// wireSLO parses Options.SLOSpec and binds a violation tracker to the
// tail windows. SLO evaluation needs windowed tails, so when tail
// tracking was not otherwise enabled a private tracker (management
// window length, no CSV export) is created just for the evaluation.
// Called from NewSystem after wireTelemetry so the sinks exist.
func (s *System) wireSLO(opts Options) error {
	if opts.SLOSpec == "" {
		return nil
	}
	spec, err := slo.Parse(opts.SLOSpec)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	tracker := slo.NewTracker(spec)
	if tracker == nil {
		return nil
	}
	if s.tailTracker == nil {
		s.tailTracker = telemetry.NewTailTracker(s.Cluster.Eng, opts.Mgmt.Window, nil)
		s.setTailOnDevices(s.tailTracker)
	}
	s.sloTracker = tracker
	s.tailTracker.OnWindow = tracker.ObserveWindow
	tracker.OnViolation = s.Manager.NoteSLOViolation
	if t := s.tel; t != nil {
		if t.Tracer != nil {
			tracker.SetTracer(t.Tracer, "slo")
		}
		if t.Registry != nil {
			tracker.RegisterTelemetry(t.Registry, "slo.")
		}
	}
	return nil
}

// Sampler returns the windowed sampler, or nil when sampling is off.
func (s *System) Sampler() *telemetry.Sampler { return s.sampler }

// SLOTracker returns the SLO violation tracker, or nil when no SLO spec
// was configured.
func (s *System) SLOTracker() *slo.Tracker { return s.sloTracker }

// TailTracker returns the tail-latency tracker, or nil when tail
// tracking is off.
func (s *System) TailTracker() *telemetry.TailTracker { return s.tailTracker }

// Telemetry returns the sinks wired into the system (nil when none).
func (s *System) Telemetry() *Telemetry { return s.tel }
