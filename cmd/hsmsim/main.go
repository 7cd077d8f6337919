// Command hsmsim runs one configurable heterogeneous-storage-management
// simulation and prints a full report: per-device latencies, per-workload
// throughput, migration activity, and bus-contention totals.
//
// Usage:
//
//	hsmsim [-scheme basil|pesto|lightsrm|bca|bca-lazy|full]
//	       [-policy SPEC]
//	       [-mem 429.mcf|470.lbm|433.milc] [-memscale F]
//	       [-nodes N] [-duration MS] [-apps a,b,c] [-tau F] [-seed N]
//	       [-bypass] [-sched baseline|p1|p2|both]
//	       [-replicas N] [-replica-seeds S1,S2,...] [-jobs N]
//	       [-trace-out FILE] [-metrics-out FILE] [-sample-ms N] [-declog N]
//	       [-tail-out FILE] [-tail-ms N] [-slo SPEC]
//	       [-fault-spec SPEC] [-max-events N]
//	       [-invariants] [-footprint-div N]
//
// With -policy the management scheme is given as a policy spec instead
// of a name: either a canonical scheme name or a comma-separated policy
// spec such as "est=predicted,exec=redirect,gate=copy,tag=on" (see the
// internal/mgmt/policy package for the grammar).
//
// With -replicas N the same configuration runs N times under different
// seeds (default seed, seed+1, ...; override with -replica-seeds), the
// replicas sharded across -jobs worker goroutines (0 = GOMAXPROCS). Each
// replica prints a one-line summary in replica order, followed by an
// aggregate mean/p95 line over latency and IOPS — the output is identical
// for every -jobs value. Telemetry from all replicas merges into single
// -trace-out/-metrics-out artifacts with tracks namespaced "sys<k>.…" by
// replica index.
//
// With -trace-out the run records per-request, bus, scheduler, and
// migration spans and writes a Chrome trace_event file (load it in
// chrome://tracing or https://ui.perfetto.dev); a path ending in .jsonl
// writes line-delimited JSON instead. With -metrics-out the full metric
// registry is sampled every -sample-ms of simulated time and written as
// CSV.
//
// With -tail-out the run tracks windowed tail latency per store and per
// VMDK (window length -tail-ms of simulated time) and writes the
// deterministic p50/p95/p99/max series as CSV; the report gains lifetime
// tail summaries. With -slo the windows are additionally evaluated
// against tail-latency objectives (grammar in internal/mgmt/slo, e.g.
// "p99=500" or "vmdk=3:max=2ms"): violated windows emit trace instants,
// land in the decision log, and are counted in the report. -slo works
// without -tail-out (a private tracker windows at the management cadence).
//
// With -fault-spec the run arms deterministic fault injection (device
// error rates, latency degradation, outages, link drops/stalls — see the
// faultinject package for the grammar); the report then includes injector
// totals and the manager's retry/abort/quarantine counters. -max-events
// arms a watchdog that aborts runaway runs.
//
// With -invariants the structural invariant checker runs at every
// management epoch, after every crash recovery, and once after the drain;
// the run exits nonzero if any check fails, printing every violation.
// With -replicas a violation in any replica exits nonzero too, naming
// the replica, its seed and its first violation.
// This is the flag chaos-harness reproduction commands use (see
// internal/chaos). -footprint-div overrides the application footprint
// divisor so such commands can match the harness's scaled-down VMDKs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/memsched"
	"repro/internal/mgmt"
	"repro/internal/mgmt/policy"
	"repro/internal/runpool"
	"repro/internal/sim"
	"repro/internal/stats"
)

func policyByName(name string) (memsched.Policy, error) {
	switch strings.ToLower(name) {
	case "baseline", "":
		return memsched.Baseline(), nil
	case "p1":
		return memsched.PolicyOne(), nil
	case "p2":
		return memsched.PolicyTwo(), nil
	case "both":
		return memsched.Combined(2 * sim.Millisecond), nil
	default:
		return memsched.Policy{}, fmt.Errorf("unknown scheduling policy %q", name)
	}
}

func main() {
	schemeName := flag.String("scheme", "bca-lazy", "management scheme name")
	policySpec := flag.String("policy", "", "management policy spec (overrides -scheme): a scheme name or a policy spec like \"est=predicted,exec=redirect,gate=copy,tag=on\"")
	mem := flag.String("mem", "429.mcf", "memory co-runner profile (empty = none)")
	memScale := flag.Float64("memscale", 1, "co-runner intensity multiplier")
	nodes := flag.Int("nodes", 1, "server nodes")
	durationMS := flag.Int("duration", 500, "simulated run time in milliseconds")
	apps := flag.String("apps", "", "comma-separated app list (default: all eight)")
	tau := flag.Float64("tau", 0.5, "imbalance threshold τ")
	seed := flag.Uint64("seed", 42, "simulation seed")
	bypass := flag.Bool("bypass", false, "enable §5.3.2 cache bypassing")
	schedName := flag.String("sched", "baseline", "NVDIMM scheduling policy (baseline|p1|p2|both)")
	dax := flag.Bool("dax", false, "enable the DAX byte-addressable NVDIMM path")
	skew := flag.Float64("skew", 0, "Zipf-like workload hot-spot skew in [0,1)")
	traceOut := flag.String("trace-out", "", "write request/migration spans (Chrome trace JSON; .jsonl = line-delimited)")
	metricsOut := flag.String("metrics-out", "", "write the sampled metric time series as CSV")
	sampleMS := flag.Int("sample-ms", 25, "metric sampling interval in simulated milliseconds")
	decLog := flag.Int("declog", 1024, "management decision-log capacity (0 = off)")
	tailOut := flag.String("tail-out", "", "write per-store/per-VMDK windowed tail latency (p50/p95/p99/max) as CSV")
	tailMS := flag.Int("tail-ms", 10, "tail window length in simulated milliseconds")
	sloSpec := flag.String("slo", "", `tail-latency SLO objectives, e.g. "p99=500" or "store=node0-nvdimm:p95=50us;vmdk=3:max=2ms"`)
	faultSpec := flag.String("fault-spec", "", `deterministic fault injection, e.g. "dev=node0-nvdimm:errate=0.2@40ms..240ms;link=0-1:drop=0.1"`)
	maxEvents := flag.Uint64("max-events", 0, "abort the run after this many engine events (0 = unlimited)")
	invariants := flag.Bool("invariants", false, "arm the structural invariant checker; exit nonzero on any violation")
	footprintDiv := flag.Int64("footprint-div", 0, "application footprint divisor (0 = the core default, 256)")
	replicas := flag.Int("replicas", 1, "run the configuration N times under different seeds")
	replicaSeeds := flag.String("replica-seeds", "", "comma-separated seeds, one per replica (default: seed, seed+1, ...)")
	jobs := flag.Int("jobs", 0, "parallel replica jobs (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	spec := *schemeName
	if *policySpec != "" {
		spec = *policySpec
	}
	scheme, err := policy.Parse(spec)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := policyByName(*schedName)
	if err != nil {
		log.Fatal(err)
	}

	cfg := mgmt.DefaultConfig()
	cfg.Tau = *tau
	cfg.Window = 10 * sim.Millisecond
	cfg.MinWindowRequests = 3
	cfg.DecisionLogCap = *decLog

	if *sampleMS <= 0 {
		*sampleMS = 25
	}
	if *tailMS <= 0 {
		*tailMS = 10
	}
	sampleEvery := sim.Time(*sampleMS) * sim.Millisecond
	tailEvery := sim.Time(0)
	if *tailOut != "" {
		tailEvery = sim.Time(*tailMS) * sim.Millisecond
	}

	opts := core.Options{
		Nodes:               *nodes,
		Scheme:              scheme,
		Mgmt:                cfg,
		MemProfile:          *mem,
		MemScale:            *memScale,
		Seed:                *seed,
		SchedPolicy:         pol,
		BypassMigratedReads: *bypass,
		DAX:                 *dax,
		WorkloadSkew:        *skew,
		SLOSpec:             *sloSpec,
		FaultSpec:           *faultSpec,
		MaxEvents:           *maxEvents,
		Invariants:          *invariants,
		FootprintDivisor:    *footprintDiv,
	}
	if *apps != "" {
		opts.Apps = strings.Split(*apps, ",")
	}
	dur := sim.Time(*durationMS) * sim.Millisecond

	if *replicas > 1 {
		err := runReplicas(opts, scheme, *replicas, *replicaSeeds, *jobs, dur,
			*traceOut, *metricsOut, sampleEvery, *tailOut, tailEvery)
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	if scheme.NeedsModel() {
		fmt.Println("training NVDIMM performance model...")
	}
	opts.Telemetry = core.NewTelemetry(*traceOut != "", *metricsOut != "", sampleEvery, tailEvery)
	sys, err := core.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running %s for %v (nodes=%d mem=%q)...\n", scheme.Name, dur, *nodes, *mem)
	if err := sys.Run(dur); err != nil {
		log.Fatalf("run aborted: %v", err)
	}
	printReport(sys.Report())
	if sys.Injector != nil {
		fmt.Printf("fault injection:     %s\n", sys.Injector.Stats())
	}
	if *invariants {
		fmt.Printf("%s\n", sys.Invariants)
		if err := sys.Invariants.Err(); err != nil {
			log.Fatal(err)
		}
	}
	if *decLog > 0 {
		l := sys.Manager.Log()
		fmt.Printf("decision log:        %d/%d entries, %d dropped\n", l.Len(), l.Cap(), l.Dropped())
	}
	if err := sys.Telemetry().Export(*traceOut, *metricsOut, *tailOut, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// runReplicas executes the configuration n times under different seeds,
// sharded across the run pool. Per-replica summary lines print in replica
// order — never completion order — followed by a mean/p95 aggregate, so
// the output is identical for every -jobs value. When a BCA scheme needs
// the performance model it is trained once from the base seed and shared
// read-only by all replicas. Telemetry from all replicas merges into
// single artifacts with "sys<k>." tracks numbered by replica index. A
// replica whose run aborts or whose invariant checker recorded a
// violation fails the whole command.
func runReplicas(opts core.Options, scheme mgmt.Scheme, n int, seedList string,
	jobs int, dur sim.Time, traceOut, metricsOut string, sampleEvery sim.Time,
	tailOut string, tailEvery sim.Time) error {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = opts.Seed + uint64(i)
	}
	if seedList != "" {
		parts := strings.Split(seedList, ",")
		if len(parts) != n {
			return fmt.Errorf("-replica-seeds has %d entries, want %d", len(parts), n)
		}
		for i, p := range parts {
			v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return fmt.Errorf("-replica-seeds[%d]: %v", i, err)
			}
			seeds[i] = v
		}
	}

	if scheme.NeedsModel() && opts.Model == nil {
		fmt.Println("training NVDIMM performance model...")
		m, err := core.TrainScaledNVDIMMModel(opts.Seed)
		if err != nil {
			return err
		}
		opts.Model = m
	}

	scope := core.NewTelemetryScope(traceOut != "", metricsOut != "", sampleEvery, tailEvery)
	scopes := scope.Fork(n)

	fmt.Printf("running %s x%d replicas for %v (nodes=%d mem=%q)...\n",
		scheme.Name, n, dur, opts.Nodes, opts.MemProfile)
	reports, errs := runpool.Do(jobs, n, func(i int) (core.Report, error) {
		o := opts
		o.Seed = seeds[i]
		o.Scope = scopes[i]
		rep, err := runReplica(o, dur)
		if err != nil {
			return core.Report{}, fmt.Errorf("replica %d (seed %d): %w", i, seeds[i], err)
		}
		return rep, nil
	})
	if err := runpool.FirstError(errs); err != nil {
		return err
	}

	lat := make([]float64, 0, n)
	iops := make([]float64, 0, n)
	for i, rep := range reports {
		fmt.Printf("replica %d (seed %d): mean latency %.1fus, mean IOPS %.0f\n",
			i, seeds[i], rep.MeanLatencyUS, rep.MeanIOPS)
		lat = append(lat, rep.MeanLatencyUS)
		iops = append(iops, rep.MeanIOPS)
	}
	fmt.Printf("aggregate over %d replicas: mean latency %.1fus (p95 %.1fus), mean IOPS %.0f (p95 %.0f)\n",
		n, stats.Mean(lat), stats.Percentile(lat, 95), stats.Mean(iops), stats.Percentile(iops, 95))

	return scope.Merge().Export(traceOut, metricsOut, tailOut, os.Stdout)
}

// runReplica builds and runs one replica's system and returns its report,
// or the error that aborted the run or summarizes its invariant
// violations.
func runReplica(o core.Options, dur sim.Time) (core.Report, error) {
	sys, err := core.NewSystem(o)
	if err != nil {
		return core.Report{}, err
	}
	if err := sys.Run(dur); err != nil {
		return core.Report{}, err
	}
	return sys.Report(), sys.Invariants.Err()
}

func printReport(rep core.Report) {
	fmt.Printf("\n=== report: %s (simulated %v) ===\n", rep.Scheme, rep.Elapsed)

	fmt.Println("\ndevices (mean latency, normalized to slowest):")
	names := make([]string, 0, len(rep.DeviceMeanUS))
	for n := range rep.DeviceMeanUS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-16s %10.1fus  (%.3f)\n", n, rep.DeviceMeanUS[n], rep.NormalizedLatency[n])
	}

	fmt.Println("\nworkloads (requests/sec):")
	apps := make([]string, 0, len(rep.WorkloadIOPS))
	for a := range rep.WorkloadIOPS {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		fmt.Printf("  %-16s %10.0f\n", a, rep.WorkloadIOPS[a])
	}

	if len(rep.Tail) > 0 {
		fmt.Println("\ntail latency (lifetime, us):")
		fmt.Printf("  %-16s %10s %10s %10s %10s %10s\n", "key", "count", "p50", "p95", "p99", "max")
		for _, t := range rep.Tail {
			fmt.Printf("  %-16s %10d %10.1f %10.1f %10.1f %10.1f\n",
				t.Key, t.Summary.Count, t.Summary.P50US, t.Summary.P95US, t.Summary.P99US, t.Summary.MaxUS)
		}
	}
	if rep.SLOWindows > 0 {
		fmt.Printf("\nSLO:                 %d violation windows over %d inspected\n",
			rep.SLOViolationWindows, rep.SLOWindows)
		for _, v := range rep.SLO {
			fmt.Printf("  %-16s %d violation windows\n", v.Key, v.Windows)
		}
	}

	fmt.Printf("\nmean IOPS:           %.0f\n", rep.MeanIOPS)
	fmt.Printf("mean latency:        %.1fus\n", rep.MeanLatencyUS)
	fmt.Printf("NVDIMM contention:   %.1fms total\n", rep.NVDIMMContentionUS/1000)
	fmt.Printf("cache hit ratio:     %.1f%%\n", rep.CacheHitRatio*100)
	m := rep.Migration
	fmt.Printf("migrations:          %d started, %d completed, %d skipped, %d ping-pongs\n",
		m.MigrationsStarted, m.MigrationsCompleted, m.MigrationsSkipped, m.PingPongs)
	fmt.Printf("migration traffic:   %dMB copied, %dMB mirrored, %v total time\n",
		m.BytesCopied>>20, m.BytesMirrored>>20, m.MigrationTime)
	if m.CopyRetries > 0 || m.MigrationsAborted > 0 || m.Quarantines > 0 {
		fmt.Printf("failure handling:    %d copy retries, %d aborts, %d quarantines, %d evacuations, %d readmissions\n",
			m.CopyRetries, m.MigrationsAborted, m.Quarantines, m.Evacuations, m.Readmissions)
	}
	if rep.IOErrors > 0 {
		fmt.Printf("I/O errors:          %d\n", rep.IOErrors)
	}
	if rep.NetworkBytes > 0 {
		fmt.Printf("network traffic:     %dMB\n", rep.NetworkBytes>>20)
	}
}
