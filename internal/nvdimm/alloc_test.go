//go:build !race

// The race detector instruments allocations of its own, so the zero-alloc
// guard only means something in an unraced build.

package nvdimm

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/memsched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// allocClient is one closed-loop issuer: a preallocated request and a
// completion bound once, which submits the client's next request as soon
// as the previous one completes.
type allocClient struct {
	n      *NVDIMM
	rng    *sim.RNG
	req    trace.IORequest
	mix    []trace.IORequest // request shapes the client draws from
	onDone device.Completion
	done   uint64
	// barrierEvery issues a persistence barrier after every that many
	// completions (0: never).
	barrierEvery uint64
}

func (c *allocClient) complete(r *trace.IORequest) {
	c.done++
	if c.barrierEvery > 0 && c.done%c.barrierEvery == 0 {
		c.n.Barrier()
	}
	c.issue()
}

func (c *allocClient) issue() {
	c.req = c.mix[c.rng.Intn(len(c.mix))]
	c.req.Offset += c.rng.Int63n(lpnRange) * 4096
	c.n.Submit(&c.req, c.onDone)
}

// lpnRange bounds every client's pages: three times the test cache, so
// misses and evictions stay frequent, and small enough that warm-up maps
// every page in the FTL.
const lpnRange = 96

// TestNVDIMMSteadyStateZeroAllocs pins the NVDIMM request path Submit →
// buffer cache → memsched → channel crossing → flash → completion as
// allocation-free once warm: the request, page and crossing free lists,
// the scheduler's entry pool, the cache slab, the channel's grant ring
// and the wheel's timer pool have all grown to their peak.
//
// Two NVDIMMs share one engine and channel. The first runs the combined
// scheduling policy with migrated-read bypass and a cache a third the
// size of the pages in use, so read misses, evictions, dirty write-backs
// and Policy-Two discards of stale migrated writes all recur; its clients
// mix buffered writes, normal reads, migrated reads and migrated writes.
// The second is write-through with periodic barriers.
//
// Out of scope: the FTL's GC relocation closures and its stall queue for
// writes that wait for a free block. The flash is sized so GC never runs,
// which the test checks.
func TestNVDIMMSteadyStateZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	small := func(name string) Config {
		cfg := testConfig(name)
		cfg.NumBlocks = 8192 // 131072 pages: far more than the run programs
		cfg.CacheBlocks = lpnRange / 3
		return cfg
	}
	cfgA := small("nvA")
	cfgA.Sched = memsched.Combined(200 * sim.Microsecond)
	cfgA.BypassMigratedReads = true
	a := New(eng, ch, cfgA)
	cfgB := small("nvB")
	cfgB.WriteThrough = true
	b := New(eng, ch, cfgB)

	mixA := []trace.IORequest{
		{Op: trace.OpWrite, Size: 4096, Class: trace.ClassNormal},
		{Op: trace.OpWrite, Size: 8192, Class: trace.ClassPersistent},
		{Op: trace.OpRead, Size: 4096, Class: trace.ClassNormal},
		{Op: trace.OpRead, Size: 12288, Class: trace.ClassNormal},
		{Op: trace.OpRead, Size: 8192, Class: trace.ClassMigrated},
		{Op: trace.OpWrite, Size: 4096, Class: trace.ClassMigrated},
		{Op: trace.OpWrite, Size: 8192, Class: trace.ClassMigrated},
	}
	mixB := []trace.IORequest{
		{Op: trace.OpWrite, Size: 4096, Class: trace.ClassPersistent},
		{Op: trace.OpWrite, Size: 8192, Class: trace.ClassPersistent},
		{Op: trace.OpRead, Size: 4096, Class: trace.ClassNormal},
	}
	var clients []*allocClient
	for i := 0; i < 12; i++ {
		c := &allocClient{n: a, rng: sim.NewRNG(uint64(i) + 1), mix: mixA}
		if i >= 8 {
			c.n, c.mix, c.barrierEvery = b, mixB, 5
		}
		c.onDone = c.complete
		clients = append(clients, c)
	}
	for _, c := range clients {
		c.issue()
	}
	eng.RunFor(2000 * sim.Millisecond)

	before := snapshot(a, b)
	const steps = 50000
	step := func() {
		for i := 0; i < steps; i++ {
			if !eng.Step() {
				t.Fatal("event queue drained while the clients run")
			}
		}
	}
	// One run: AllocsPerRun truncates the per-run average, so a single
	// run of many steps is the only way a lone allocation still shows.
	allocs := testing.AllocsPerRun(1, step)
	after := snapshot(a, b)

	// The window must have exercised every path it claims to cover.
	for _, c := range []struct {
		name string
		d    uint64
	}{
		{"nvA requests", after.reqsA - before.reqsA},
		{"nvB requests", after.reqsB - before.reqsB},
		{"nvA read misses", after.missesA - before.missesA},
		{"nvA dirty write-backs", after.flushedA - before.flushedA},
		{"nvA bypassed reads", after.bypassedA - before.bypassedA},
		{"nvA discarded migrated writes", after.discardedA - before.discardedA},
		{"nvA completed migrated writes", after.migratedA - before.migratedA},
		{"nvB barriers", after.barriersB - before.barriersB},
	} {
		if c.d == 0 {
			t.Errorf("no %s in the measured window", c.name)
		}
	}
	if gc := after.gcRuns; gc != 0 {
		t.Errorf("FTL garbage collection ran %d times; size the flash so it does not", gc)
	}
	if allocs != 0 {
		t.Fatalf("NVDIMM steady state allocated %v times over %d engine steps (%.4f per step), want 0",
			allocs, steps, allocs/steps)
	}
	t.Logf("0 allocations over %d engine steps, %d requests", steps,
		after.reqsA-before.reqsA+after.reqsB-before.reqsB)
}

type allocCounters struct {
	reqsA, reqsB, missesA, flushedA, bypassedA uint64
	discardedA, migratedA, barriersB, gcRuns   uint64
}

func snapshot(a, b *NVDIMM) allocCounters {
	requests := func(n *NVDIMM) uint64 { return n.Metrics().TotalReads + n.Metrics().TotalWrites }
	sa, sb := a.Scheduler().Stats(), b.Scheduler().Stats()
	return allocCounters{
		reqsA:      requests(a),
		reqsB:      requests(b),
		missesA:    a.Cache().Stats().Misses,
		flushedA:   a.flushedVictims,
		bypassedA:  a.bypassedReads,
		discardedA: sa.DiscardedMigrated,
		migratedA:  sa.CompletedMigrated,
		barriersB:  sb.Barriers,
		gcRuns:     a.FTL().Stats().GCRuns + b.FTL().Stats().GCRuns,
	}
}
