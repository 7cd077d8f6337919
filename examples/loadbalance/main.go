// Loadbalance: the Fig. 12 scenario in miniature. The same workload mix
// runs under BASIL (measured-latency balancing) and under the paper's
// bus-contention-aware scheme while a memory-intensive co-runner pollutes
// the NVDIMM's measured latency. BASIL chases the contention phantom and
// ping-pongs VMDKs; BCA strips contention with the model and stays put.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	fmt.Println("training the NVDIMM performance model...")
	model, err := repro.TrainModel(1)
	if err != nil {
		log.Fatal(err)
	}

	run := func(scheme repro.Scheme) repro.Report {
		cfg := repro.ManagerConfig{}
		// Zero config selects defaults; tighten the window so co-runner
		// phases are visible to the decision loop.
		cfg.Window = 10 * repro.Millisecond
		cfg.MinWindowRequests = 3
		cfg.MinResidenceWindows = 4
		cfg.DebounceWindows = 2
		cfg.MaxConcurrentMigrations = 2
		cfg.CopyDepth = 8

		sys, err := repro.NewSystem(repro.Options{
			Scheme:           scheme,
			Mgmt:             cfg,
			MemProfile:       "429.mcf",
			MemScale:         4, // multi-core-class interference
			MemPhasePeriod:   80 * repro.Millisecond,
			Model:            model,
			FootprintDivisor: 1024,
			NoHDDPlacement:   true,
			Seed:             31,
		})
		if err != nil {
			log.Fatal(err)
		}
		sys.Run(400 * repro.Millisecond)
		return sys.Report()
	}

	// The BCA arm is built from a policy spec rather than the canonical
	// constructor — same policy, demonstrating the textual surface.
	bcaScheme, err := repro.ParsePolicy("name=BCA,est=predicted")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running BASIL (measured-latency balancing)...")
	fmt.Printf("  pipeline: %s\n", repro.SchemeBASIL().Describe())
	basil := run(repro.SchemeBASIL())
	fmt.Println("running BCA (model-predicted NVDIMM latency)...")
	fmt.Printf("  pipeline: %s\n", bcaScheme.Describe())
	bca := run(bcaScheme)

	fmt.Printf("\n%-8s %12s %12s %12s %12s\n", "scheme", "migrations", "ping-pongs", "copied", "mean lat")
	for _, r := range []repro.Report{basil, bca} {
		fmt.Printf("%-8s %12d %12d %10dMB %10.0fus\n",
			r.Scheme, r.Migration.MigrationsStarted, r.Migration.PingPongs,
			r.Migration.BytesCopied>>20, r.MeanLatencyUS)
	}
	saved := basil.Migration.BytesCopied - bca.Migration.BytesCopied
	fmt.Printf("\nBCA avoided %d MB of unnecessary migration traffic.\n", saved>>20)
}
