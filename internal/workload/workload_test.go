package workload

import (
	"errors"
	"testing"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeTarget completes requests after a fixed delay. It records each
// request by value, as submitted: the runner issues its next request in
// the same record once the completion has run.
type fakeTarget struct {
	eng      *sim.Engine
	delay    sim.Time
	seen     []trace.IORequest
	barriers int
}

func (f *fakeTarget) Submit(r *trace.IORequest, done device.Completion) {
	r.Issue = f.eng.Now()
	f.seen = append(f.seen, *r)
	f.eng.Schedule(f.delay, func() {
		r.Complete = f.eng.Now()
		if done != nil {
			done(r)
		}
	})
}

func (f *fakeTarget) Barrier() { f.barriers++ }

func TestProfileValidate(t *testing.T) {
	good := Profile{Name: "x", WriteRatio: 0.5, IOSize: 4096, OIO: 4, Footprint: 1 << 20}
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
	bad := good
	bad.WriteRatio = 1.5
	if bad.Validate() == nil {
		t.Fatal("bad write ratio accepted")
	}
	bad = good
	bad.OIO = 0
	if bad.Validate() == nil {
		t.Fatal("zero OIO accepted")
	}
}

func TestBigDataAppsComplete(t *testing.T) {
	apps := BigDataApps()
	if len(apps) != 8 {
		t.Fatalf("apps = %d, want 8 (Table 5)", len(apps))
	}
	names := map[string]bool{}
	for _, p := range apps {
		if err := p.Validate(); err != nil {
			t.Fatalf("profile %s invalid: %v", p.Name, err)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"bayes", "dfsioe_r", "dfsioe_w", "kmeans", "nutchindexing", "pagerank", "sort", "wordcount"} {
		if !names[want] {
			t.Fatalf("missing app %s", want)
		}
	}
	if _, ok := AppProfile("sort"); !ok {
		t.Fatal("AppProfile lookup failed")
	}
	if _, ok := AppProfile("nope"); ok {
		t.Fatal("AppProfile found nonexistent app")
	}
}

func TestSPECProfilesMatchTable5(t *testing.T) {
	mcf, ok := SPECProfile("429.mcf")
	if !ok || mcf.RPKI != 40.58 || mcf.WPKI != 15.42 {
		t.Fatalf("mcf = %+v", mcf)
	}
	lbm, _ := SPECProfile("470.lbm")
	milc, _ := SPECProfile("433.milc")
	if !(mcf.APKI() > lbm.APKI() && lbm.APKI() > milc.APKI()) {
		t.Fatal("intensity ordering mcf > lbm > milc violated")
	}
	if _, ok := SPECProfile("999.fake"); ok {
		t.Fatal("found nonexistent SPEC profile")
	}
}

func TestAccessesPerSecond(t *testing.T) {
	m := MemProfile{RPKI: 10, WPKI: 5}
	// 15 APKI × 2e9/1e3 = 3e7.
	if got := m.AccessesPerSecond(1); got != 3e7 {
		t.Fatalf("rate = %v", got)
	}
	if got := m.AccessesPerSecond(2); got != 6e7 {
		t.Fatalf("scaled rate = %v", got)
	}
}

func TestRunnerMaintainsOIO(t *testing.T) {
	eng := sim.NewEngine()
	ft := &fakeTarget{eng: eng, delay: 100 * sim.Microsecond}
	p := Profile{Name: "t", WriteRatio: 0.5, IOSize: 4096, OIO: 8, Footprint: 1 << 30}
	r := NewRunner(eng, sim.NewRNG(1), p, ft, 3)
	r.Start()
	if r.InFlight() != 8 {
		t.Fatalf("in flight after start = %d, want 8", r.InFlight())
	}
	eng.RunFor(2 * sim.Millisecond)
	if r.InFlight() != 8 {
		t.Fatalf("in flight steady state = %d, want 8", r.InFlight())
	}
	r.Stop()
	eng.Run()
	if r.InFlight() != 0 {
		t.Fatalf("in flight after stop+drain = %d", r.InFlight())
	}
	if r.Completed() != r.Issued() {
		t.Fatalf("completed %d != issued %d", r.Completed(), r.Issued())
	}
	if r.MeanLatency() != 100*sim.Microsecond {
		t.Fatalf("mean latency = %v", r.MeanLatency())
	}
}

func TestRunnerTagsRequests(t *testing.T) {
	eng := sim.NewEngine()
	ft := &fakeTarget{eng: eng, delay: 10}
	p := Profile{Name: "t", WriteRatio: 1, IOSize: 4096, OIO: 1, Footprint: 1 << 20}
	r := NewRunner(eng, sim.NewRNG(1), p, ft, 7)
	r.Start()
	eng.RunFor(1000)
	r.Stop()
	eng.Run()
	if r.ID() != 7 {
		t.Fatalf("workload id = %d", r.ID())
	}
	for _, req := range ft.seen {
		if req.VMDK != -1 {
			t.Fatalf("untargeted request tagged with VMDK %d", req.VMDK)
		}
		if req.Op != trace.OpWrite {
			t.Fatal("write-ratio-1 profile issued a read")
		}
	}
}

func TestRunnerWriteRatioConverges(t *testing.T) {
	eng := sim.NewEngine()
	ft := &fakeTarget{eng: eng, delay: 10}
	p := Profile{Name: "t", WriteRatio: 0.25, IOSize: 4096, OIO: 4, Footprint: 1 << 30}
	r := NewRunner(eng, sim.NewRNG(42), p, ft, 0)
	r.Start()
	eng.RunFor(200 * sim.Microsecond)
	r.Stop()
	eng.Run()
	writes := 0
	for _, req := range ft.seen {
		if req.Op == trace.OpWrite {
			writes++
		}
	}
	frac := float64(writes) / float64(len(ft.seen))
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("write fraction = %v over %d reqs, want ~0.25", frac, len(ft.seen))
	}
}

func TestRunnerSequentialVsRandomStreams(t *testing.T) {
	issue := func(randProb float64) (random int) {
		eng := sim.NewEngine()
		ft := &fakeTarget{eng: eng, delay: 10}
		p := Profile{Name: "t", WriteRatio: 0, ReadRand: randProb, IOSize: 4096, OIO: 1, Footprint: 1 << 30}
		r := NewRunner(eng, sim.NewRNG(5), p, ft, 0)
		r.Start()
		eng.RunFor(10 * sim.Microsecond)
		r.Stop()
		eng.Run()
		for i := 1; i < len(ft.seen); i++ {
			if ft.seen[i].Offset != ft.seen[i-1].Offset+4096 {
				random++
			}
		}
		return random
	}
	if issue(0) != 0 {
		t.Fatal("fully sequential profile produced jumps")
	}
	if issue(1) == 0 {
		t.Fatal("fully random profile produced no jumps")
	}
}

func TestRunnerBarriers(t *testing.T) {
	eng := sim.NewEngine()
	ft := &fakeTarget{eng: eng, delay: 10}
	p := Profile{Name: "t", WriteRatio: 1, IOSize: 4096, OIO: 1, Footprint: 1 << 20,
		Persistent: true, BarrierEvery: 5}
	r := NewRunner(eng, sim.NewRNG(1), p, ft, 0)
	r.Start()
	eng.RunFor(1000)
	r.Stop()
	eng.Run()
	writes := len(ft.seen)
	if ft.barriers != writes/5 {
		t.Fatalf("barriers = %d for %d writes, want %d", ft.barriers, writes, writes/5)
	}
	for _, req := range ft.seen {
		if req.Class != trace.ClassPersistent {
			t.Fatal("persistent profile issued non-persistent write")
		}
	}
}

func TestRunnerOffsetsWithinFootprint(t *testing.T) {
	eng := sim.NewEngine()
	ft := &fakeTarget{eng: eng, delay: 5}
	p := Profile{Name: "t", WriteRatio: 0.5, ReadRand: 0.5, WriteRand: 0.5,
		IOSize: 8192, OIO: 4, Footprint: 1 << 20}
	r := NewRunner(eng, sim.NewRNG(9), p, ft, 0)
	r.Start()
	eng.RunFor(50 * sim.Microsecond)
	r.Stop()
	eng.Run()
	for _, req := range ft.seen {
		if req.Offset < 0 || req.Offset+req.Size > p.Footprint {
			t.Fatalf("request out of footprint: off=%d size=%d", req.Offset, req.Size)
		}
	}
}

func TestNewRunnerPanicsOnInvalidProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRunner(sim.NewEngine(), sim.NewRNG(1), Profile{}, nil, 0)
}

func TestMemGenGeneratesTraffic(t *testing.T) {
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	d := dram.New(eng, ch)
	mcf, _ := SPECProfile("429.mcf")
	g := NewMemGen(eng, sim.NewRNG(3), d, mcf)
	g.Start()
	eng.RunFor(sim.Millisecond)
	g.Stop()
	eng.Run()
	if d.Intensity().Total() == 0 {
		t.Fatal("no traffic generated")
	}
	if d.Served() != d.Intensity().Total() {
		t.Fatalf("DIMM served %d of %d issued accesses", d.Served(), d.Intensity().Total())
	}
}

func TestMemGenPhaseModulation(t *testing.T) {
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	d := dram.New(eng, ch)
	p := MemProfile{Name: "x", RPKI: 20, WPKI: 10, PhasePeriod: 10 * sim.Millisecond,
		PhaseDuty: 0.5, HighFactor: 2, LowFactor: 0.1}
	g := NewMemGen(eng, sim.NewRNG(3), d, p)
	g.Start()

	eng.RunFor(5 * sim.Millisecond) // memory-intensive half
	highCount := d.Intensity().Total()
	*d.Intensity() = trace.MemIntensity{}
	eng.RunFor(5 * sim.Millisecond) // compute half
	lowCount := d.Intensity().Total()
	g.Stop()

	if highCount <= 3*lowCount {
		t.Fatalf("phase modulation weak: high=%d low=%d", highCount, lowCount)
	}
}

func TestMemGenIntensityOrdering(t *testing.T) {
	// mcf generates more traffic than milc in the same window.
	count := func(name string) uint64 {
		eng := sim.NewEngine()
		ch := bus.NewChannel(eng, 0)
		d := dram.New(eng, ch)
		p, _ := SPECProfile(name)
		g := NewMemGen(eng, sim.NewRNG(3), d, p)
		g.Start()
		eng.RunFor(2 * sim.Millisecond)
		g.Stop()
		return g.dimm.Intensity().Total()
	}
	if count("429.mcf") <= count("433.milc") {
		t.Fatal("mcf should out-traffic milc")
	}
}

func TestMemGenSlowsNVDIMMTraffic(t *testing.T) {
	// End-to-end contention: IO acquisitions on a channel wait longer when
	// a memory generator is hammering it.
	ioWait := func(withMem bool) float64 {
		eng := sim.NewEngine()
		ch := bus.NewChannel(eng, 0)
		d := dram.New(eng, ch)
		if withMem {
			mcf, _ := SPECProfile("429.mcf")
			g := NewMemGen(eng, sim.NewRNG(3), d, mcf)
			g.Start()
		}
		// Issue a stream of IO transfers.
		var issue func()
		count := 0
		issue = func() {
			if count >= 100 {
				return
			}
			count++
			ch.Acquire(bus.PriIO, bus.TransferTime(4096), func(sim.Time) {
				eng.Schedule(5*sim.Microsecond, issue)
			})
		}
		issue()
		eng.RunFor(5 * sim.Millisecond)
		return ch.MeanWaitUS(bus.PriIO)
	}
	quiet := ioWait(false)
	contended := ioWait(true)
	if contended <= quiet {
		t.Fatalf("IO wait with memory traffic (%v) should exceed quiet (%v)", contended, quiet)
	}
}

func TestSkewConcentratesAccesses(t *testing.T) {
	hotFraction := func(skew float64) float64 {
		eng := sim.NewEngine()
		ft := &fakeTarget{eng: eng, delay: 5}
		p := Profile{Name: "t", WriteRatio: 0, ReadRand: 1, IOSize: 4096,
			OIO: 4, Footprint: 1 << 30, Skew: skew}
		r := NewRunner(eng, sim.NewRNG(9), p, ft, 0)
		r.Start()
		eng.RunFor(100 * sim.Microsecond)
		r.Stop()
		eng.Run()
		hot := 0
		for _, req := range ft.seen {
			if req.Offset < (1<<30)/10 { // first 10% of the footprint
				hot++
			}
		}
		return float64(hot) / float64(len(ft.seen))
	}
	uniform := hotFraction(0)
	skewed := hotFraction(0.9)
	if uniform > 0.25 {
		t.Fatalf("uniform hot fraction = %v, want ~0.1", uniform)
	}
	if skewed < 2*uniform {
		t.Fatalf("skew 0.9 hot fraction = %v, want well above uniform %v", skewed, uniform)
	}
}

func TestSkewValidation(t *testing.T) {
	p := Profile{Name: "t", IOSize: 4096, OIO: 1, Footprint: 1 << 20, Skew: 1.0}
	if p.Validate() == nil {
		t.Fatal("skew 1.0 accepted")
	}
	p.Skew = -0.1
	if p.Validate() == nil {
		t.Fatal("negative skew accepted")
	}
	p.Skew = 0.99
	if err := p.Validate(); err != nil {
		t.Fatalf("valid skew rejected: %v", err)
	}
}

func TestZipfOffsetBounds(t *testing.T) {
	rng := sim.NewRNG(3)
	for i := 0; i < 10000; i++ {
		off := zipfOffset(rng, 1000, 0.9)
		if off < 0 || off >= 1000 {
			t.Fatalf("zipf offset out of range: %d", off)
		}
	}
}

// TestMemGenTimerReuse checks that MemGen drives every tick through one
// re-armed timer: Stop cancels the pending tick, Start resumes on the
// same handle, and a saturated generator resumes from a burst completion
// with no tick pending in between.
func TestMemGenTimerReuse(t *testing.T) {
	mcf, _ := SPECProfile("429.mcf")
	newGen := func() (*sim.Engine, *MemGen) {
		eng := sim.NewEngine()
		ch := bus.NewChannel(eng, 0)
		return eng, NewMemGen(eng, sim.NewRNG(3), dram.New(eng, ch), mcf)
	}

	t.Run("stop cancels and start resumes", func(t *testing.T) {
		eng, g := newGen()
		g.Start()
		tick := g.next
		if tick == nil || !tick.Active() {
			t.Fatal("Start left no tick pending")
		}
		for i := 0; i < 2000; i++ {
			eng.Step()
			if g.next != tick {
				t.Fatalf("step %d: tick timer replaced instead of re-armed", i)
			}
		}
		g.Stop()
		if tick.Active() {
			t.Fatal("Stop left the tick pending")
		}
		issued := g.dimm.Intensity().Total()
		// Only in-flight bursts remain, so the queue drains for good.
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		processed := eng.Processed()
		eng.RunFor(10 * sim.Millisecond)
		if eng.Pending() != 0 || eng.Processed() != processed || g.dimm.Intensity().Total() != issued {
			t.Fatalf("after Stop: pending %d, processed %d→%d, issued %d→%d; want nothing new",
				eng.Pending(), processed, eng.Processed(), issued, g.dimm.Intensity().Total())
		}
		g.Start()
		if g.next != tick || !tick.Active() {
			t.Fatal("Start did not re-arm the same tick timer")
		}
		if g.dimm.Intensity().Total() != issued+uint64(g.Aggregation) {
			t.Fatalf("Start issued %d cachelines, want one burst of %d", g.dimm.Intensity().Total()-issued, g.Aggregation)
		}
		eng.RunFor(sim.Millisecond)
		if g.dimm.Intensity().Total() <= issued+uint64(g.Aggregation) {
			t.Fatal("generation did not resume after Start")
		}
		g.Stop()
	})

	t.Run("saturated generation resumes from the burst completion", func(t *testing.T) {
		eng, g := newGen()
		g.Scale = 4
		g.Start()
		resumes := 0
		for i := 0; i < 20000; i++ {
			waiting, issued := g.waiting, g.dimm.Intensity().Total()
			eng.Step()
			if g.outstanding > maxOutstanding {
				t.Fatalf("step %d: %d bursts in flight, want at most %d", i, g.outstanding, maxOutstanding)
			}
			if g.waiting && g.next.Active() {
				t.Fatalf("step %d: a tick is pending while generation waits for a completion", i)
			}
			if waiting && !g.waiting {
				// The completion that cleared waiting issued the next
				// burst and re-armed the one timer.
				resumes++
				if g.dimm.Intensity().Total() != issued+uint64(g.Aggregation) || g.outstanding != maxOutstanding || !g.next.Active() {
					t.Fatalf("step %d: resume issued %d cachelines (outstanding %d, tick active %v)",
						i, g.dimm.Intensity().Total()-issued, g.outstanding, g.next.Active())
				}
			}
		}
		if resumes < 100 {
			t.Fatalf("only %d resumes from a completion; the generator is not saturated", resumes)
		}
		g.Stop()
	})
}

// failingTarget checks each request as the runner submits it, then fails
// every other one. Before completing it stamps the fields a device and a
// VMDK write, so a field that survived a slot's recycling would show on
// the slot's next Submit.
type failingTarget struct {
	t       *testing.T
	eng     *sim.Engine
	p       Profile
	n       int
	failure error
}

func (f *failingTarget) Submit(r *trace.IORequest, done device.Completion) {
	want := trace.ClassNormal
	if r.Op == trace.OpWrite && f.p.Persistent {
		want = trace.ClassPersistent
	}
	if r.Err != nil || r.Issue != 0 || r.Complete != 0 || r.VMDK != -1 || r.Class != want || r.Size != f.p.IOSize {
		f.t.Fatalf("request %d submitted with err %v issue %v complete %v vmdk %d class %v size %d; want a fresh %v request",
			r.ID, r.Err, r.Issue, r.Complete, r.VMDK, r.Class, r.Size, want)
	}
	f.n++
	fail := f.n%2 == 0
	r.Issue = f.eng.Now()
	r.VMDK = 7
	f.eng.Schedule(5, func() {
		r.Complete = f.eng.Now()
		if fail {
			r.Err = f.failure
		}
		done(r)
	})
}

// TestRunnerSlotsStartClean drives runners, with and without think time,
// against a target that fails every other request and dirties every
// field: each Submit must still see a freshly drawn request.
func TestRunnerSlotsStartClean(t *testing.T) {
	for _, think := range []sim.Time{0, 3} {
		eng := sim.NewEngine()
		p := Profile{Name: "t", WriteRatio: 0.5, ReadRand: 0.5, WriteRand: 0.5, IOSize: 4096,
			OIO: 3, Footprint: 1 << 20, ThinkTime: think, Persistent: true, BarrierEvery: 2}
		ft := &failingTarget{t: t, eng: eng, p: p, failure: errors.New("injected")}
		r := NewRunner(eng, sim.NewRNG(11), p, ft, 0)
		r.Start()
		eng.RunFor(2000)
		r.Stop()
		eng.Run()
		if r.Errored() == 0 || r.Completed() == 0 || r.Errored()+r.Completed() != r.Issued() {
			t.Fatalf("think %v: issued %d, completed %d, errored %d", think, r.Issued(), r.Completed(), r.Errored())
		}
	}
}

// TestRunnerThinkTimerReuse checks that each slot re-arms its one think
// timer: after the first round of completions the runner holds OIO slots
// and arms no new timers, Stop cancels the pending refills, and a restart
// takes the freed slots back.
func TestRunnerThinkTimerReuse(t *testing.T) {
	eng := sim.NewEngine()
	ft := &fakeTarget{eng: eng, delay: 10}
	p := Profile{Name: "t", WriteRatio: 0.5, IOSize: 4096, OIO: 4, Footprint: 1 << 20, ThinkTime: 7}
	r := NewRunner(eng, sim.NewRNG(1), p, ft, 0)
	r.Start()
	eng.RunFor(200)
	if len(r.slots) != p.OIO {
		t.Fatalf("%d slots for OIO %d", len(r.slots), p.OIO)
	}
	timers := map[*sim.Timer]bool{}
	for _, s := range r.slots {
		if s.think == nil {
			t.Fatal("a slot never armed its think timer")
		}
		timers[s.think] = true
	}
	eng.RunFor(400)
	for _, s := range r.slots {
		if !timers[s.think] {
			t.Fatal("a slot replaced its think timer instead of re-arming it")
		}
	}
	// Stop with refills pending: they are cancelled and their slots freed.
	thinking := 0
	for eng.Step() {
		thinking = 0
		for _, s := range r.slots {
			if s.think.Active() {
				thinking++
			}
		}
		if thinking > 0 && r.InFlight() > 0 {
			break
		}
	}
	r.Stop()
	for _, s := range r.slots {
		if s.think.Active() {
			t.Fatal("Stop left a think-time refill armed")
		}
	}
	if len(r.free) != thinking {
		t.Fatalf("%d free slots after Stop cancelled %d refills", len(r.free), thinking)
	}
	eng.Run()
	if r.InFlight() != 0 || len(r.free) != p.OIO {
		t.Fatalf("after draining: %d in flight, %d free slots, want 0 and %d", r.InFlight(), len(r.free), p.OIO)
	}
	issued := r.Issued()
	r.Start()
	if r.Issued()-issued != uint64(p.OIO) || len(r.slots) != p.OIO {
		t.Fatalf("restart issued %d on %d slots, want %d on the same %d", r.Issued()-issued, len(r.slots), p.OIO, p.OIO)
	}
}

// TestMemGenGapCacheMatchesFormula sweeps tick times across many phase
// boundaries, with Scale and Aggregation changed mid-sweep, and checks
// that every gap burstGap returns from its cache carries the same bits as
// the uncached formula: rate = AccessesPerSecond(Scale) × phase factor,
// gap = Aggregation / rate × 1e9 ns (at least 1), -1 (idle) when
// rate ≤ 0.
func TestMemGenGapCacheMatchesFormula(t *testing.T) {
	mcf, _ := SPECProfile("429.mcf")
	profiles := []MemProfile{
		mcf,
		{Name: "idle-half", RPKI: 40, WPKI: 15, PhasePeriod: 40 * sim.Microsecond, PhaseDuty: 0.3, HighFactor: 2.5, LowFactor: 0},
		{Name: "flat", RPKI: 3.3, WPKI: 1.1},
	}
	for _, p := range profiles {
		eng := sim.NewEngine()
		g := NewMemGen(eng, sim.NewRNG(1), dram.New(eng, bus.NewChannel(eng, 0)), p)
		period := p.PhasePeriod
		if period <= 0 {
			period = sim.Millisecond
		}
		step := period/7 + 13 // lands on both sides of every boundary
		hits, misses := 0, 0
		for i, now := 0, sim.Time(0); now < 20*period; i, now = i+1, now+step {
			switch i {
			case 40:
				g.Scale = 3.7
			case 80:
				g.Aggregation = 5
			case 120:
				g.Scale = 1e-9 // a tiny rate: gaps of tens of seconds
			}
			f := g.phaseFactor(now)
			if g.gap != 0 && f == g.gapFactor && g.Scale == g.gapScale && g.Aggregation == g.gapAgg {
				hits++
			} else {
				misses++
			}
			gap := g.burstGap(f)
			want := sim.Time(-1)
			if rate := p.AccessesPerSecond(g.Scale) * f; rate > 0 {
				want = sim.Time(float64(g.Aggregation) / rate * 1e9)
				if want < 1 {
					want = 1
				}
			}
			if gap != want {
				t.Fatalf("%s at %v (factor %v, scale %v, aggregation %d): gap %v, formula %v",
					p.Name, now, f, g.Scale, g.Aggregation, gap, want)
			}
		}
		if hits == 0 || (p.PhasePeriod > 0 && misses < 20) {
			t.Fatalf("%s: %d cache hits, %d misses: the sweep does not exercise the cache", p.Name, hits, misses)
		}
	}
}
