// Archopt: the §5.3 architectural optimizations in isolation. One NVDIMM
// serves a persistent-store application (writes with ordering barriers)
// while a VMDK migration streams through it. We compare the
// barrier-respecting baseline scheduler against Policy One / Policy Two /
// both (Fig. 14), and show what cache bypassing does to the buffer-cache
// hit ratio during a migration read storm (Fig. 15).
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memsched"
	"repro/internal/mgmt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// migClass is the traffic class migration I/O carries under the full
// scheme — taken from the scheme itself, the same place the manager's
// migration engine gets it, so this example stays honest if the tagging
// policy ever changes.
var migClass = mgmt.Full().MigratedClass()

// runScheduling measures application IOPS on a migration-loaded NVDIMM
// under the given transaction-queue policy.
func runScheduling(pol memsched.Policy) float64 {
	cfg := core.ScaledNVDIMMConfig("nv")
	cfg.Sched = pol
	cfg.WriteThrough = true // persistent store: barriers bind write latency
	cfg.SchedSlots = 8
	cfg.CacheBlocks = 256
	cfg.MaxPendingFlush = 64
	rig := core.NewRig(cfg, nil)
	eng, n := rig.Eng, rig.NVDIMM

	p, _ := workload.AppProfile("kmeans")
	p.Footprint = 8 << 20
	p.IOSize = 4096
	p.Persistent = true
	p.BarrierEvery = 2
	p.ThinkTime = 0
	r := workload.NewRunner(eng, sim.NewRNG(5), p, n, 0)
	r.Start()

	// Migration writes arrive in 64 KB chunks (16 pages): under the
	// baseline the epoch holding a chunk needs several flash program
	// rounds; Policy One moves the chunk into barrier-idle slots.
	off := int64(64 << 20)
	var wstream func()
	wstream = func() {
		n.Submit(&trace.IORequest{Op: trace.OpWrite, Offset: off, Size: 64 << 10, Class: migClass},
			func(*trace.IORequest) { eng.After(2*sim.Millisecond, wstream) })
		off += 64 << 10
	}
	wstream()
	// Source-side migration reads share the flash array too.
	roff := int64(128 << 20)
	var rstream func()
	rstream = func() {
		n.Submit(&trace.IORequest{Op: trace.OpRead, Offset: roff, Size: 64 << 10, Class: migClass},
			func(*trace.IORequest) { eng.After(100*sim.Microsecond, rstream) })
		roff += 64 << 10
	}
	rstream()

	eng.RunFor(20 * sim.Millisecond) // warm
	before := r.Completed()
	eng.RunFor(40 * sim.Millisecond)
	return float64(r.Completed()-before) / (40 * sim.Millisecond).Seconds()
}

// runBypass measures the buffer-cache hit ratio during a migration read
// storm, with or without §5.3.2 bypassing.
func runBypass(bypass bool) float64 {
	cfg := core.ScaledNVDIMMConfig("nv")
	cfg.BypassMigratedReads = bypass
	cfg.CacheBlocks = 256
	rig := core.NewRig(cfg, nil)
	eng, n := rig.Eng, rig.NVDIMM

	p := workload.Profile{Name: "hot", WriteRatio: 0.2, ReadRand: 0.8, WriteRand: 0.8,
		IOSize: 4096, OIO: 4, Footprint: 1 << 20, ThinkTime: 20 * sim.Microsecond}
	r := workload.NewRunner(eng, sim.NewRNG(3), p, n, 0)
	r.Start()
	eng.RunFor(10 * sim.Millisecond) // warm the cache

	off := int64(32 << 20)
	var scan func()
	scan = func() {
		n.Submit(&trace.IORequest{Op: trace.OpRead, Offset: off, Size: 64 << 10, Class: migClass},
			func(*trace.IORequest) { scan() })
		off += 64 << 10
	}
	for k := 0; k < 4; k++ {
		scan()
	}
	st := n.Cache().Stats()
	st.ResetWindow()
	eng.RunFor(40 * sim.Millisecond)
	return st.WindowHitRatio()
}

func main() {
	fmt.Println("=== migration-aware scheduling (Fig. 14 scenario) ===")
	base := runScheduling(memsched.Baseline())
	fmt.Printf("baseline (barrier-bound FCFS): %8.0f app IOPS\n", base)
	for _, c := range []struct {
		name string
		pol  memsched.Policy
	}{
		{"Policy One (migrated ignore barriers)", memsched.PolicyOne()},
		{"Policy Two (persistent prioritized)", memsched.PolicyTwo()},
		{"both + non-persistent barrier", memsched.Combined(2 * sim.Millisecond)},
	} {
		got := runScheduling(c.pol)
		fmt.Printf("%-40s %8.0f app IOPS (%.2fx)\n", c.name+":", got, got/base)
	}

	fmt.Println("\n=== buffer-cache bypassing (Fig. 15 scenario) ===")
	polluted := runBypass(false)
	preserved := runBypass(true)
	fmt.Printf("hit ratio during migration storm, LRFU only: %5.1f%%\n", polluted*100)
	fmt.Printf("hit ratio during migration storm, bypassing: %5.1f%%\n", preserved*100)
}
