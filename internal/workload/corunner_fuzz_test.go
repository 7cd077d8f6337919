package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/dram"
	"repro/internal/sim"
)

// FuzzCoRunnerVsEager runs one byte-decoded scenario on the co-runner
// stack (MemGen → dram.DIMM → bus.Channel, whose releases and burst
// finishes are lane keys) and on the eager reference of
// corunner_ref_test.go, each on its own engine. After every operation the
// two must agree on the clock, Processed, Pending, the channel's grant
// counts, mean waits and utilization (bit for bit), the DIMM's served and
// issued counts and the generator's running and waiting flags; and the
// logs of channel grants (order and start times) and in-event probes must
// be identical.
//
//	go test -fuzz FuzzCoRunnerVsEager -fuzztime 10s ./internal/workload
//
// Encoding: a profile byte (mod 3: 429.mcf; 40 µs phases with an idle
// half; no phases), an Aggregation byte (mod 32, plus 1), then opcode
// bytes (mod 11) with their operands:
//
//	0 Acquire(PriIO, h*16 ns), chain c: on grant, c%3 = 1 acquires
//	  PriMem and 2 PriIO for the same hold, inside the grant callback
//	1 Acquire(PriMem, h*8 ns)
//	2 AccessBurst(addr a<<13 | b<<6, n%16+1 cachelines) on the
//	  generator's DIMM: both stacks count its finish as one of the
//	  generator's bursts in flight, so outstanding can go below zero and
//	  the generator then issue more than maxOutstanding bursts. This
//	  reaches past the DIMM's single-consumer contract on purpose; it is
//	  not how a second caller may use a DIMM.
//	3 MemGen.Start               4 MemGen.Stop
//	5 Scale = (s%16+1)/2         6 RunFor((d%64+1) * 500 ns)
//	7 Step() × (k%64+1)          8 Run() if stopped, else RunFor(10 µs)
//	9 a probe at now + p*100 ns that logs the state and acquires PriIO
//	10 SetBudget(n*256) for odd n, else SetBudget(0)
func FuzzCoRunnerVsEager(f *testing.F) {
	// Saturated mcf at 4× with I/O contention, a stop, a drain and a
	// restart.
	f.Add([]byte{0, 15, 5, 7, 3, 0, 20, 0, 6, 63, 0, 40, 2, 6, 63, 9, 3, 4, 8, 3, 6, 20})
	// Idle phases: the generator re-checks at the next boundary.
	f.Add([]byte{1, 15, 5, 3, 3, 6, 63, 6, 63, 9, 100, 6, 63, 4, 8})
	// Steps through saturation, bursts and re-entrant grants.
	f.Add([]byte{2, 3, 5, 15, 3, 7, 63, 2, 1, 2, 3, 0, 9, 1, 0, 9, 2, 7, 63, 1, 30, 7, 63, 4, 8})
	// A watchdog budget that trips mid-window, then a rerun without it.
	f.Add([]byte{0, 15, 5, 7, 3, 10, 3, 6, 63, 6, 63, 10, 0, 6, 63, 4, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		lazy := runCoRunnerOps(newLazyStack(data), data, coMaxOps)
		ref := runCoRunnerOps(newRefStack(data), data, coMaxOps)
		compareCoRunner(t, lazy, ref)
	})
}

// TestCoRunnerMatchesEager runs a longer seeded scenario than the fuzz
// seeds: mcf saturating the channel at 4× beside random I/O, bursts,
// probes, Stop/Start and budgets, long enough to cross many saturation
// rounds.
func TestCoRunnerMatchesEager(t *testing.T) {
	rng := sim.NewRNG(29)
	data := []byte{0, 15, 5, 7, 3}
	for len(data) < 3000 {
		data = append(data, byte(rng.Intn(256)))
	}
	lazy := runCoRunnerOps(newLazyStack(data), data, len(data))
	ref := runCoRunnerOps(newRefStack(data), data, len(data))
	compareCoRunner(t, lazy, ref)
	last := lazy.steps[len(lazy.steps)-1]
	saturated := 0
	for _, st := range lazy.steps {
		if st.waiting {
			saturated++
		}
	}
	t.Logf("%d ops (%d saturated), %d log records, %d events processed, %d cachelines, %d grants",
		len(lazy.steps), saturated, len(lazy.log), last.processed, last.issued, last.grantsMem+last.grantsIO)
	if len(lazy.log) < 100 || last.issued < 10000 || saturated < 10 {
		t.Fatalf("%d log records, %d cachelines, %d saturated ops: the scenario exercises too little",
			len(lazy.log), last.issued, saturated)
	}
}

// coStack is one co-runner stack under test.
type coStack interface {
	engine() *sim.Engine
	acquire(pri bus.Priority, hold sim.Time, granted func(start sim.Time))
	access(addr uint64, n int)
	start()
	stop()
	setScale(s float64)
	running() bool
	state() coState
}

// coState is what a stack shows between operations and in probes.
type coState struct {
	now                 sim.Time
	processed           uint64
	pending             int
	grantsMem, grantsIO uint64
	waitMem, waitIO     float64
	util                float64
	served, issued      uint64
	running, waiting    bool
	tripped             bool
}

// coRec is one log record: a grant (kind 'g') or a probe ('p', with the
// state at the probe).
type coRec struct {
	kind byte
	id   int
	at   sim.Time
	v    sim.Time
	st   coState
}

type coResult struct {
	steps []coState
	log   []coRec
}

// coProfiles are the generator profiles the first byte picks from.
func coProfile(b byte) MemProfile {
	switch b % 3 {
	case 0:
		p, _ := SPECProfile("429.mcf")
		return p
	case 1:
		return MemProfile{Name: "idle-half", RPKI: 40, WPKI: 15, PhasePeriod: 40 * sim.Microsecond,
			PhaseDuty: 0.5, HighFactor: 2, LowFactor: 0}
	default:
		return MemProfile{Name: "flat", RPKI: 30, WPKI: 10}
	}
}

func coHeader(data []byte) (MemProfile, int) {
	var p, a byte
	if len(data) > 0 {
		p = data[0]
	}
	if len(data) > 1 {
		a = data[1]
	}
	return coProfile(p), int(a%32) + 1
}

type lazyStack struct {
	eng *sim.Engine
	ch  *bus.Channel
	d   *dram.DIMM
	g   *MemGen
}

func newLazyStack(data []byte) *lazyStack {
	p, agg := coHeader(data)
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	d := dram.New(eng, ch)
	g := NewMemGen(eng, sim.NewRNG(11), d, p)
	g.Aggregation = agg
	return &lazyStack{eng, ch, d, g}
}

func (s *lazyStack) engine() *sim.Engine { return s.eng }
func (s *lazyStack) acquire(pri bus.Priority, hold sim.Time, granted func(sim.Time)) {
	s.ch.Acquire(pri, hold, granted)
}
func (s *lazyStack) access(addr uint64, n int) { s.d.AccessBurst(addr, n) }
func (s *lazyStack) start()                    { s.g.Start() }
func (s *lazyStack) stop()                     { s.g.Stop() }
func (s *lazyStack) setScale(x float64)        { s.g.Scale = x }
func (s *lazyStack) running() bool             { return s.g.running }
func (s *lazyStack) state() coState {
	return coState{
		now: s.eng.Now(), processed: s.eng.Processed(), pending: s.eng.Pending(),
		grantsMem: s.ch.Grants(bus.PriMem), grantsIO: s.ch.Grants(bus.PriIO),
		waitMem: s.ch.MeanWaitUS(bus.PriMem), waitIO: s.ch.MeanWaitUS(bus.PriIO),
		util: s.ch.Utilization(), served: s.d.Served(), issued: s.d.Intensity().Total(),
		running: s.g.running, waiting: s.g.waiting,
	}
}

type refStack struct {
	eng *sim.Engine
	ch  *refChannel
	d   *refDIMM
	g   *refMemGen
}

func newRefStack(data []byte) *refStack {
	p, agg := coHeader(data)
	eng := sim.NewEngine()
	ch := &refChannel{eng: eng}
	d := newRefDIMM(eng, ch)
	g := &refMemGen{eng: eng, rng: sim.NewRNG(11), dimm: d, profile: p, Aggregation: agg, Scale: 1}
	return &refStack{eng, ch, d, g}
}

func (s *refStack) engine() *sim.Engine { return s.eng }
func (s *refStack) acquire(pri bus.Priority, hold sim.Time, granted func(sim.Time)) {
	s.ch.Acquire(pri, hold, granted)
}

// access gives the burst the generator's burstDone: on the lane stack
// every finish on the DIMM counts against the generator's bursts in
// flight, the test's own bursts included, so outstanding can go below
// zero. This mirrors the lane stack under op 2 of FuzzCoRunnerVsEager;
// it is not the production contract, where the DIMM's finish count has
// a single consumer.
func (s *refStack) access(addr uint64, n int) { s.d.AccessBurst(addr, n, s.g.burstDone) }
func (s *refStack) start()                    { s.g.Start() }
func (s *refStack) stop()                     { s.g.Stop() }
func (s *refStack) setScale(x float64)        { s.g.Scale = x }
func (s *refStack) running() bool             { return s.g.running }
func (s *refStack) state() coState {
	util := 0.0
	if now := s.eng.Now(); now != 0 {
		util = float64(s.ch.busyTime) / float64(now)
	}
	return coState{
		now: s.eng.Now(), processed: s.eng.Processed(), pending: s.eng.Pending(),
		grantsMem: s.ch.grants[bus.PriMem], grantsIO: s.ch.grants[bus.PriIO],
		waitMem: s.ch.waitUS[bus.PriMem].Mean(), waitIO: s.ch.waitUS[bus.PriIO].Mean(),
		util: util, served: s.d.served, issued: s.d.intensity,
		running: s.g.running, waiting: s.g.waiting,
	}
}

// coMaxOps bounds a fuzz input's operations.
const coMaxOps = 160

// runCoRunnerOps decodes data (after the two header bytes) and runs at
// most maxOps of its operations on s. The decoding never depends on the
// stack.
func runCoRunnerOps(s coStack, data []byte, maxOps int) coResult {
	eng := s.engine()
	b := &byteStream{b: data, i: min(2, len(data))}
	var res coResult
	ids := 0
	logGrant := func(id int) func(sim.Time) {
		return func(start sim.Time) { res.log = append(res.log, coRec{kind: 'g', id: id, at: eng.Now(), v: start}) }
	}
	for b.i < len(b.b) && len(res.steps) < maxOps {
		var err error
		switch b.next() % 11 {
		case 0:
			hold, chain := sim.Time(b.next())*16, b.next()%3
			id := ids
			ids++
			grant := logGrant(id)
			s.acquire(bus.PriIO, hold, func(start sim.Time) {
				grant(start)
				if chain > 0 {
					s.acquire(bus.Priority(chain-1), hold, logGrant(-1-id))
				}
			})
		case 1:
			hold := sim.Time(b.next()) * 8
			s.acquire(bus.PriMem, hold, logGrant(ids))
			ids++
		case 2:
			addr := uint64(b.next())<<13 | uint64(b.next())<<6
			s.access(addr, int(b.next()%16)+1)
		case 3:
			s.start()
		case 4:
			s.stop()
		case 5:
			s.setScale(float64(b.next()%16+1) / 2)
		case 6:
			err = eng.RunFor(sim.Time(b.next()%64+1) * 500)
		case 7:
			for k := int(b.next()%64) + 1; k > 0 && eng.Step(); k-- {
			}
		case 8:
			if s.running() {
				err = eng.RunFor(10 * sim.Microsecond)
			} else {
				err = eng.Run()
			}
		case 9:
			id := ids
			ids++
			eng.Schedule(sim.Time(b.next())*100, func() {
				res.log = append(res.log, coRec{kind: 'p', id: id, at: eng.Now(), st: s.state()})
				s.acquire(bus.PriIO, 64, logGrant(-1-id))
			})
		case 10:
			if n := b.next(); n%2 == 1 {
				eng.SetBudget(uint64(n) * 256)
			} else {
				eng.SetBudget(0)
			}
		}
		st := s.state()
		st.tripped = err != nil
		res.steps = append(res.steps, st)
	}
	return res
}

// byteStream reads the operation stream; past its end it reads zeros.
type byteStream struct {
	b []byte
	i int
}

func (s *byteStream) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	c := s.b[s.i]
	s.i++
	return c
}

// compareCoRunner fails t at the first difference between the stacks.
func compareCoRunner(t *testing.T, lazy, ref coResult) {
	t.Helper()
	for i := 0; i < len(lazy.steps) && i < len(ref.steps); i++ {
		if !sameCoState(lazy.steps[i], ref.steps[i]) {
			t.Fatalf("op %d: lane stack %+v\neager stack %+v", i, lazy.steps[i], ref.steps[i])
		}
	}
	if len(lazy.steps) != len(ref.steps) {
		t.Fatalf("%d ops on the lane stack, %d on the eager one", len(lazy.steps), len(ref.steps))
	}
	if !slices.EqualFunc(lazy.log, ref.log, func(a, b coRec) bool {
		return a.kind == b.kind && a.id == b.id && a.at == b.at && a.v == b.v && sameCoState(a.st, b.st)
	}) {
		for i := 0; i < len(lazy.log) && i < len(ref.log); i++ {
			if a, b := lazy.log[i], ref.log[i]; a.kind != b.kind || a.id != b.id || a.at != b.at || a.v != b.v || !sameCoState(a.st, b.st) {
				t.Fatalf("log record %d: lane stack %+v\neager stack %+v", i, a, b)
			}
		}
		t.Fatalf("logs differ in length: lane stack %d, eager stack %d", len(lazy.log), len(ref.log))
	}
}

// sameCoState compares two states, floats bit for bit.
func sameCoState(a, b coState) bool {
	fa, fb := a, b
	fa.waitMem, fa.waitIO, fa.util = 0, 0, 0
	fb.waitMem, fb.waitIO, fb.util = 0, 0, 0
	return fa == fb &&
		math.Float64bits(a.waitMem) == math.Float64bits(b.waitMem) &&
		math.Float64bits(a.waitIO) == math.Float64bits(b.waitIO) &&
		math.Float64bits(a.util) == math.Float64bits(b.util)
}
