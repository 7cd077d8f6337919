// Package repro is a from-scratch Go reproduction of "Towards Efficient
// NVDIMM-based Heterogeneous Storage Hierarchy Management for Big Data
// Workloads" (Chen, Shao, Liu, Feng, Li — MICRO-52, 2019).
//
// The package re-exports the public surface of the simulation and
// management stack:
//
//   - a discrete-event simulated storage hierarchy: flash-backed NVDIMMs
//     sharing DDR channels with DRAM (bus contention included), PCIe SSDs,
//     and SATA HDDs;
//   - the paper's §4 performance model — a regression tree over workload
//     characteristics predicting contention-free device latency, with
//     BC = MP − PP contention estimation;
//   - the §5 storage manager — bus-contention-aware placement and
//     imbalance detection, lazy migration with I/O mirroring and
//     cost/benefit gating, and the §5.3 architectural optimizations
//     (migration-aware flash scheduling and buffer-cache bypassing);
//   - the baselines BASIL, Pesto, and LightSRM;
//   - regenerators for every table and figure in the paper's evaluation.
//
// Quick start:
//
//	sys, err := repro.NewSystem(repro.Options{
//	    Scheme:     repro.SchemeBCALazy(),
//	    MemProfile: "429.mcf",
//	})
//	if err != nil { ... }
//	sys.Run(500 * repro.Millisecond)
//	fmt.Println(sys.Report().MeanLatencyUS)
//
// See the examples directory for runnable scenarios and EXPERIMENTS.md
// for paper-versus-measured results.
package repro

import (
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memsched"
	"repro/internal/mgmt"
	"repro/internal/mgmt/policy"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// Simulated-time units (nanosecond-resolution virtual clock).
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Time is a point or duration in simulated time.
type Time = sim.Time

// System is an assembled simulation: server nodes, workloads, the trained
// model, and the storage manager.
type System = core.System

// Options configures a System; the zero value selects the evaluation
// defaults (single node, all eight big-data applications, no memory
// co-runner, BASIL management).
type Options = core.Options

// Report summarizes a run: per-device latencies, workload throughput,
// migration statistics, and contention totals.
type Report = core.Report

// WindowSample is one management-window observation: node 0's measured
// NVDIMM latency and the model's prediction for it.
type WindowSample = core.WindowSample

// NewSystem builds a system from options; it trains the NVDIMM
// performance model when the scheme requires one and none was injected.
func NewSystem(opts Options) (*System, error) { return core.NewSystem(opts) }

// Scheme is a named management policy: the estimate, gate, exec and tag
// choices selecting which techniques are active.
type Scheme = mgmt.Scheme

// ParsePolicy resolves a policy spec — a canonical scheme name such as
// "bca-lazy", or a policy spec such as
// "est=predicted,exec=redirect,gate=copy,tag=on" — into a Scheme. See
// the internal/mgmt/policy package for the grammar.
func ParsePolicy(spec string) (Scheme, error) { return policy.Parse(spec) }

// ManagerConfig parameterizes the management loop (window length,
// imbalance threshold τ, migration executor limits).
type ManagerConfig = mgmt.Config

// The management schemes of the paper's evaluation (§2.2 baselines and
// §5 proposals).
var (
	SchemeBASIL    = mgmt.BASIL
	SchemePesto    = mgmt.Pesto
	SchemeLightSRM = mgmt.LightSRM
	SchemeBCA      = mgmt.BCA
	SchemeBCALazy  = mgmt.BCALazy
	SchemeFull     = mgmt.Full
)

// SchedPolicy selects the NVDIMM transaction-queue scheduling behaviour
// (§5.3.1).
type SchedPolicy = memsched.Policy

// Scheduling policies: barrier-respecting FCFS, Policy One (migrated
// writes ignore barriers), Policy Two (persistent writes prioritized),
// and the combination with the non-persistent barrier.
var (
	SchedBaseline  = memsched.Baseline
	SchedPolicyOne = memsched.PolicyOne
	SchedPolicyTwo = memsched.PolicyTwo
	SchedCombined  = memsched.Combined
)

// Model is the trained §4 performance model (PP = f(WC), Eq. 1–2).
type Model = perfmodel.Model

// TrainModel trains the NVDIMM performance model used by BCA schemes on
// quiet scaled devices. Models are reusable across systems with the same
// scaled configuration; train once and inject via Options.Model.
func TrainModel(seed uint64) (*Model, error) { return core.TrainScaledNVDIMMModel(seed) }

// ExperimentScale selects how long experiment regenerators run.
type ExperimentScale = experiments.Scale

// QuickScale is the test/bench-friendly experiment scale; FullScale the
// report-quality one used by cmd/experiments.
var (
	QuickScale = experiments.Quick
	FullScale  = experiments.Full
)
