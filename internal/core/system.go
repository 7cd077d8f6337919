// Package core assembles the full system of the paper: simulated server
// nodes (DRAM + NVDIMM + SSD + HDD on shared memory channels), big-data
// I/O workloads mixed with SPEC-style memory co-runners, the trained
// performance model, and the storage manager running one of the §5/§2.2
// schemes. It is the experiment substrate every table/figure regenerator
// drives.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/hdd"
	"repro/internal/invariant"
	"repro/internal/memsched"
	"repro/internal/mgmt"
	"repro/internal/mgmt/slo"
	"repro/internal/mlmodel"
	"repro/internal/nvdimm"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Options configures a System. Zero values select the evaluation
// defaults.
type Options struct {
	// Nodes is the server-node count (§6.1: 1 or 3).
	Nodes int
	// Scheme is the management scheme under test.
	Scheme mgmt.Scheme
	// Mgmt overrides manager parameters (zero → scaled defaults).
	Mgmt mgmt.Config
	// MemProfile names the SPEC co-runner ("" = none; "429.mcf", …).
	MemProfile string
	// MemScale multiplies co-runner intensity (default 1).
	MemScale float64
	// Apps lists big-data workloads (default: all eight of Table 5).
	Apps []string
	// FootprintDivisor scales application footprints and VMDK sizes down
	// from the paper's GB scale so simulations stay tractable
	// (default 256: 24 GB → 96 MB).
	FootprintDivisor int64
	// Seed drives all randomness.
	Seed uint64
	// SchedPolicy is the NVDIMM transaction-queue policy (§5.3.1).
	SchedPolicy memsched.Policy
	// BypassMigratedReads enables §5.3.2 cache bypassing on NVDIMMs.
	BypassMigratedReads bool
	// Model injects a pre-trained NVDIMM performance model; when nil and
	// the scheme needs one, the System trains one at construction.
	Model *perfmodel.Model
	// NoHDDPlacement keeps initial VMDK placement off HDD stores (the
	// Table 2 controlled setup: NVDIMM vs SSD balance decisions only).
	NoHDDPlacement bool
	// MemPhasePeriod overrides the co-runner's memory/compute phase
	// alternation period (0 keeps the profile default). Management
	// experiments set it to several management windows so interference
	// appears persistent to the decision loop, as in the paper's
	// 30-minute sampling regime.
	MemPhasePeriod sim.Time
	// DAX enables the byte-addressable NVDIMM access path (the paper's
	// concluding outlook).
	DAX bool
	// WorkloadSkew applies a Zipf-like hot-spot distribution to every
	// application's random accesses (0 = the profiles' uniform jumps).
	WorkloadSkew float64
	// Telemetry attaches explicit observability sinks owned by exactly
	// this system (nil = consult Scope, else run uninstrumented).
	Telemetry *Telemetry
	// Scope, when Telemetry is nil, lets the system adopt fresh private
	// sinks from a TelemetryScope so families of systems — possibly built
	// and run concurrently via internal/runpool — merge into one artifact
	// with stable "sys<k>." names after all runs return.
	Scope *TelemetryScope
	// SLOSpec arms tail-latency SLO tracking (see internal/mgmt/slo's
	// grammar; "" = off). Violated windows land in the decision log, the
	// span tracer (as instants), and the Report.
	SLOSpec string
	// FaultSpec arms deterministic fault injection (see faultinject's
	// grammar; "" = no faults). Injection draws from its own seed-derived
	// RNG, so a run with an empty spec is byte-identical to one built
	// without fault support at all.
	FaultSpec string
	// MaxEvents arms the engine watchdog for Run: the simulation errors
	// out after processing this many events (0 = unbounded). A safety
	// net against runaway event loops in scripted experiments.
	MaxEvents uint64
	// Invariants arms the structural-invariant checker: the manager
	// sweeps bitmap/placement consistency, budget conservation, and
	// quarantine legality at every epoch boundary and after each crash
	// recovery, and Run performs a final sweep after the drain. Off by
	// default (the checks cost a pointer test when disabled).
	Invariants bool
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 1
	}
	if o.Scheme.Name == "" {
		o.Scheme = mgmt.BASIL()
	}
	if len(o.Apps) == 0 {
		for _, p := range workload.BigDataApps() {
			o.Apps = append(o.Apps, p.Name)
		}
	}
	if o.FootprintDivisor <= 0 {
		o.FootprintDivisor = 256
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.MemScale <= 0 {
		o.MemScale = 1
	}
	if o.Mgmt.Window <= 0 {
		o.Mgmt = mgmt.DefaultConfig()
		o.Mgmt.Window = 25 * sim.Millisecond
		o.Mgmt.MinWindowRequests = 4
	}
	return o
}

// ScaledNVDIMMConfig returns the Table 4 NVDIMM scaled for simulation:
// the full 16-channel × 4-chip geometry (write bandwidth matters for the
// balance dynamics), 32 pages/block, 2048 physical blocks = 256 MB of
// simulated flash backing the full logical extent, 2 MB cache.
func ScaledNVDIMMConfig(name string) nvdimm.Config {
	cfg := nvdimm.DefaultConfig(name, 256<<20, 2048)
	cfg.Flash.PagesPerBlock = 32
	cfg.CacheBlocks = 512 // 2 MB of 4 KB pages (400 MB ÷ the capacity scale)
	return cfg
}

// ScaledSSDConfig returns the Table 4 SSD scaled likewise.
func ScaledSSDConfig(name string) ssd.Config {
	cfg := ssd.DefaultConfig(name, 512<<20, 4096)
	cfg.Flash.PagesPerBlock = 32
	return cfg
}

// ScaledHDDConfig returns the Table 4 HDD scaled to 4 GB.
func ScaledHDDConfig(name string, seed uint64) hdd.Config {
	return hdd.Config{Name: name, Capacity: 4 << 30, Seed: seed}
}

// WindowSample is one management-epoch observation: node 0's measured
// NVDIMM latency and the model's prediction for the same window, the MP
// and PP of BC = MP − PP (Eq. 3).
type WindowSample struct {
	At sim.Time
	// NVDIMMLatencyUS is the measured NVDIMM latency (node 0).
	NVDIMMLatencyUS float64
	// PredictedUS is the model's PP for the same window (0 without model).
	PredictedUS float64

	// MemIntensity, CacheHitRatio and PerStoreUS are never set by
	// System, which records only the fields above. They remain only
	// because the perfbench module's epoch observer sets them; ROADMAP
	// item 8 deletes them with that observer.
	MemIntensity  uint64
	CacheHitRatio float64
	PerStoreUS    map[string]float64
}

// System is an assembled experiment instance.
type System struct {
	Opts    Options
	Cluster *cluster.Cluster
	Manager *mgmt.Manager
	Model   *perfmodel.Model
	Runners []*workload.Runner
	VMDKs   []*mgmt.VMDK
	// Injector is the armed fault injector (nil when Opts.FaultSpec is
	// empty).
	Injector *faultinject.Injector
	// Invariants is the structural-invariant checker (nil unless
	// Opts.Invariants).
	Invariants *invariant.Checker

	rng         *sim.RNG
	samples     []WindowSample
	tel         *Telemetry
	sampler     *telemetry.Sampler
	tailTracker *telemetry.TailTracker
	sloTracker  *slo.Tracker
}

// NewSystem builds and wires a system; it trains the NVDIMM model when
// the scheme requires one and none was injected.
func NewSystem(opts Options) (*System, error) {
	opts = opts.withDefaults()
	s := &System{Opts: opts, rng: sim.NewRNG(opts.Seed)}

	var memProfile *workload.MemProfile
	if opts.MemProfile != "" {
		p, ok := workload.SPECProfile(opts.MemProfile)
		if !ok {
			return nil, fmt.Errorf("core: unknown memory profile %q", opts.MemProfile)
		}
		if opts.MemPhasePeriod > 0 {
			p.PhasePeriod = opts.MemPhasePeriod
		}
		memProfile = &p
	}

	s.Cluster = cluster.New()

	if opts.FaultSpec != "" {
		spec, err := faultinject.ParseSpec(opts.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if !spec.Empty() {
			s.Injector = faultinject.New(s.Cluster.Eng, opts.Seed, spec)
		}
	}

	for i := 0; i < opts.Nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		nvCfg := ScaledNVDIMMConfig(name + "-nvdimm")
		nvCfg.Sched = opts.SchedPolicy
		nvCfg.BypassMigratedReads = opts.BypassMigratedReads
		nvCfg.DAX = opts.DAX
		ncfg := cluster.NodeConfig{
			Name:       name,
			Channels:   4,
			NVDIMM:     nvCfg,
			SSD:        ScaledSSDConfig(name + "-ssd"),
			HDD:        ScaledHDDConfig(name+"-hdd", opts.Seed+uint64(i)),
			MemProfile: memProfile,
			MemScale:   opts.MemScale,
			// The same burst size as a Rig's co-runner.
			MemAggregation: memAggregation,
		}
		if s.Injector != nil {
			node := i
			ncfg.WrapDevice = func(d device.Device) device.Device {
				return s.Injector.WrapDeviceOn(node, d)
			}
		}
		if _, err := s.Cluster.AddNode(ncfg, s.rng.Split()); err != nil {
			return nil, err
		}
	}
	if s.Injector != nil {
		// A clause naming a device or node that does not exist would arm
		// nothing and silently "pass" the experiment — fail construction
		// instead.
		if unmatched := s.Injector.UnmatchedDevices(); len(unmatched) > 0 {
			return nil, fmt.Errorf("core: fault spec targets unknown devices %v", unmatched)
		}
		if max := s.Injector.MaxLinkNode(); max >= opts.Nodes {
			return nil, fmt.Errorf("core: fault spec targets link node %d but only %d nodes exist", max, opts.Nodes)
		}
		if max := s.Injector.MaxCrashNode(); max >= opts.Nodes {
			return nil, fmt.Errorf("core: fault spec crashes node %d but only %d nodes exist", max, opts.Nodes)
		}
	}

	// Train (or adopt) the NVDIMM performance model.
	s.Model = opts.Model
	if s.Model == nil && opts.Scheme.NeedsModel() {
		m, err := TrainScaledNVDIMMModel(opts.Seed)
		if err != nil {
			return nil, err
		}
		s.Model = m
	}

	s.Manager = mgmt.NewManager(s.Cluster.Eng, opts.Mgmt, opts.Scheme, s.Cluster.AllStores())
	if s.Model != nil {
		s.Manager.SetModel(device.KindNVDIMM, s.Model)
	}
	var network mgmt.Network = s.Cluster
	if s.Injector != nil {
		network = s.Injector.WrapNetwork(s.Cluster)
	}
	s.Manager.SetNetwork(network)
	s.Manager.OnEpoch = s.observeEpoch
	if opts.Invariants {
		s.Invariants = invariant.NewChecker()
		s.Manager.SetInvariants(s.Invariants)
	}
	if s.Injector != nil {
		// Arm the crash schedule. At each crash instant the injector has
		// already bumped the device power-loss generation (failing in-
		// flight acks); here we tear down the volatile tier — the DRAM
		// buffer cache — and hand the manager the scope for journal-driven
		// recovery. Flash, FTL state, and resident extents persist.
		s.Injector.Arm(func(c faultinject.Crash) {
			if c.Node >= 0 && c.Node < len(s.Cluster.Nodes) {
				node := s.Cluster.Nodes[c.Node]
				if c.Device == "" || c.Device == node.NVDIMM.Name() {
					node.NVDIMM.DropCache()
				}
			}
			s.Manager.OnCrash(mgmt.CrashScope{Node: c.Node, Device: c.Device})
		})
	}

	// Place VMDKs: §6.2 "initially assign workloads to servers randomly,
	// but in a greedy manner so as to keep a space-balanced arrangement".
	if err := s.placeWorkloads(); err != nil {
		return nil, err
	}
	s.wireTelemetry(resolveTelemetry(opts))
	if err := s.wireSLO(opts); err != nil {
		return nil, err
	}
	return s, nil
}

// placeWorkloads creates one VMDK + runner per application, spread
// greedily by free space.
func (s *System) placeWorkloads() error {
	stores := s.Cluster.AllStores()
	for i, appName := range s.Opts.Apps {
		p, ok := workload.AppProfile(appName)
		if !ok {
			return fmt.Errorf("core: unknown app %q", appName)
		}
		p.Footprint /= s.Opts.FootprintDivisor
		if p.Footprint < 8<<20 {
			p.Footprint = 8 << 20
		}
		if s.Opts.WorkloadSkew > 0 {
			p.Skew = s.Opts.WorkloadSkew
		}
		// Space-balanced spread: round-robin across stores (random start
		// per §6.2), skipping stores that cannot hold the extent.
		var best *mgmt.Datastore
		for j := 0; j < len(stores); j++ {
			ds := stores[(i+j)%len(stores)]
			if s.Opts.NoHDDPlacement && ds.Dev.Kind() == device.KindHDD {
				continue
			}
			if ds.Free() >= p.Footprint {
				best = ds
				break
			}
		}
		if best == nil {
			return fmt.Errorf("core: no capacity for %s (%d bytes)", appName, p.Footprint)
		}
		v, err := best.CreateVMDK(i+1, p.Footprint)
		if err != nil {
			return err
		}
		s.VMDKs = append(s.VMDKs, v)
		r := workload.NewRunner(s.Cluster.Eng, s.rng.Split(), p, v, i)
		s.Runners = append(s.Runners, r)
	}
	return nil
}

// observeEpoch records the per-window time series.
func (s *System) observeEpoch(perfs []mgmt.StorePerf) {
	sample := WindowSample{At: s.Cluster.Eng.Now()}
	for _, p := range perfs {
		if p.Store.Dev.Kind() == device.KindNVDIMM && p.Store.Node == 0 {
			sample.NVDIMMLatencyUS = p.MeasuredUS
			if s.Model != nil {
				sample.PredictedUS = s.Model.PredictUS(p.WC)
			}
		}
	}
	s.samples = append(s.samples, sample)
}

// Samples returns the recorded window series.
func (s *System) Samples() []WindowSample { return s.samples }

// Start launches workloads, memory traffic, the manager, and the
// telemetry sampler.
func (s *System) Start() {
	for _, r := range s.Runners {
		r.Start()
	}
	s.Cluster.StartMemTraffic()
	s.Manager.Start()
	if s.sampler != nil {
		s.sampler.Start()
	}
	s.tailTracker.Start()
}

// Stop halts generation and management; in-flight work drains on the
// next Run of the engine.
func (s *System) Stop() {
	for _, r := range s.Runners {
		r.Stop()
	}
	s.Cluster.StopMemTraffic()
	s.Manager.Stop()
	if s.sampler != nil {
		s.sampler.Stop()
	}
	s.tailTracker.Stop()
}

// Run starts everything, runs d of simulated time, then stops and
// drains. With Opts.MaxEvents set, the engine watchdog bounds the run and
// the budget error is returned.
func (s *System) Run(d sim.Time) error {
	if s.Opts.MaxEvents > 0 {
		s.Cluster.Eng.SetBudget(s.Opts.MaxEvents)
	}
	s.Start()
	if err := s.Cluster.Eng.RunFor(d); err != nil {
		s.Stop()
		return err
	}
	s.Stop()
	// Bound the drain: long-tail events (e.g. paused lazy migrations)
	// must not spin forever.
	if err := s.Cluster.Eng.RunFor(d / 4); err != nil {
		return err
	}
	// Final structural sweep: whatever state the run ended in must still
	// satisfy the placement/bitmap/budget invariants.
	s.Invariants.Check(s.Cluster.Eng.Now(), s.Manager.CheckInvariants)
	return nil
}

// Report summarizes the run.
type Report struct {
	Scheme string
	// DeviceMeanUS maps device name → lifetime mean latency (µs).
	DeviceMeanUS map[string]float64
	// NormalizedLatency maps device name → latency normalized to the
	// slowest device (Fig. 12's metric).
	NormalizedLatency map[string]float64
	// WorkloadIOPS maps app name → completed requests per simulated
	// second.
	WorkloadIOPS map[string]float64
	// MeanIOPS is the average across workloads (speedup basis, §6.2.3).
	MeanIOPS float64
	// MeanLatencyUS is the request-weighted mean latency across devices.
	MeanLatencyUS float64
	// Migration is the manager's activity summary.
	Migration mgmt.Stats
	// NVDIMMContentionUS is the mean measured bus-contention delay.
	NVDIMMContentionUS float64
	// CacheHitRatio is the node-0 NVDIMM lifetime cache hit ratio.
	CacheHitRatio float64
	// NetworkBytes is cross-node migration traffic.
	NetworkBytes int64
	// IOErrors is the total failed completions across devices (0 in
	// fault-free runs).
	IOErrors uint64
	// Tail lists lifetime tail-latency summaries per tracked key in
	// sorted key order (empty when tail tracking is off).
	Tail []TailReport
	// SLO lists per-key violation-window counts in sorted key order
	// (empty when no SLO spec is armed or nothing violated).
	SLO []SLOReport
	// SLOWindows and SLOViolationWindows count inspected tail windows
	// and (key, window) pairs in violation (0 without an SLO spec).
	SLOWindows, SLOViolationWindows uint64
	// InvariantRuns and InvariantViolations summarize the structural-
	// invariant checker (both 0 when Opts.Invariants is off).
	InvariantRuns, InvariantViolations uint64
	// Elapsed is the simulated duration covered by the report.
	Elapsed sim.Time
}

// TailReport is one tracked key's lifetime tail in a Report.
type TailReport struct {
	// Key is the tracked entity: a store name or "vmdk<id>".
	Key string
	// Summary holds the lifetime quantiles.
	Summary telemetry.TailSummary
}

// SLOReport is one key's SLO violation count in a Report.
type SLOReport struct {
	// Key is the violating entity: a store name or "vmdk<id>".
	Key string
	// Windows counts this key's violation windows.
	Windows uint64
}

// Report computes the run summary.
func (s *System) Report() Report {
	rep := Report{
		Scheme:            s.Opts.Scheme.Name,
		DeviceMeanUS:      make(map[string]float64),
		NormalizedLatency: make(map[string]float64),
		WorkloadIOPS:      make(map[string]float64),
		Migration:         s.Manager.Stats(),
		NetworkBytes:      s.Cluster.NetworkBytes(),
		Elapsed:           s.Cluster.Eng.Now(),
	}
	slowest := 0.0
	var latSum, reqSum float64
	for _, n := range s.Cluster.Nodes {
		for _, ds := range n.Stores {
			m := ds.Dev.Metrics()
			mean := m.Lifetime.Mean()
			rep.DeviceMeanUS[ds.Dev.Name()] = mean
			if mean > slowest {
				slowest = mean
			}
			latSum += mean * float64(m.Lifetime.N())
			reqSum += float64(m.Lifetime.N())
			rep.IOErrors += m.TotalErrors
		}
		rep.NVDIMMContentionUS += n.NVDIMM.Metrics().LifetimeContentionUS
	}
	if reqSum > 0 {
		rep.MeanLatencyUS = latSum / reqSum
	}
	for name, mean := range rep.DeviceMeanUS {
		if slowest > 0 {
			rep.NormalizedLatency[name] = mean / slowest
		}
	}
	secs := s.Cluster.Eng.Now().Seconds()
	var iopsSum float64
	for _, r := range s.Runners {
		iops := 0.0
		if secs > 0 {
			iops = float64(r.Completed()) / secs
		}
		rep.WorkloadIOPS[r.Profile().Name] = iops
		iopsSum += iops
	}
	if len(s.Runners) > 0 {
		rep.MeanIOPS = iopsSum / float64(len(s.Runners))
	}
	rep.CacheHitRatio = s.Cluster.Nodes[0].NVDIMM.Cache().Stats().HitRatio()
	for _, k := range s.tailTracker.Keys() {
		rep.Tail = append(rep.Tail, TailReport{Key: k, Summary: s.tailTracker.Summary(k)})
	}
	for _, k := range s.sloTracker.Keys() {
		rep.SLO = append(rep.SLO, SLOReport{Key: k, Windows: s.sloTracker.Violations(k)})
	}
	rep.SLOWindows = s.sloTracker.Windows()
	rep.SLOViolationWindows = s.sloTracker.ViolationWindows()
	rep.InvariantRuns = s.Invariants.Runs()
	rep.InvariantViolations = uint64(len(s.Invariants.Violations()))
	return rep
}

// TrainScaledNVDIMMModel trains the performance model on quiet scaled
// NVDIMMs (the §4 offline training pass). The result is reusable across
// systems with the same scaled configuration.
func TrainScaledNVDIMMModel(seed uint64) (*perfmodel.Model, error) {
	spec := perfmodel.DefaultTrainSpec()
	spec.Seed = seed
	spec.FreeSpaceRatios = []float64{1.0, 0.3}
	// Span queue depths well past the flash parallelism so measured OIO
	// values inflated by bus contention do not extrapolate off the grid.
	spec.OIOs = []int{1, 4, 16, 48}
	spec.IOSizes = []int64{4 << 10, 64 << 10, 256 << 10}
	spec.WindowPerPoint = 3 * sim.Millisecond
	spec.Warmup = sim.Millisecond
	spec.Footprint = 64 << 20
	ds := perfmodel.Collect(QuietNVDIMM, spec)
	return perfmodel.TrainModel(ds, mlmodel.DefaultTreeConfig())
}

// ContentionOf is a small helper for experiments: BC = MP − PP (Eq. 3)
// for a window, or 0 without a model.
func (s *System) ContentionOf(sample WindowSample) float64 {
	if s.Model == nil {
		return 0
	}
	return perfmodel.ContentionUS(sample.NVDIMMLatencyUS, sample.PredictedUS)
}
