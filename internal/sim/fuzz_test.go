package sim

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzWheelVsHeap decodes a byte stream into engine operations — At,
// Schedule, After, Every, Stop, Reset, Run, RunUntil, SetBudget, Step and
// the lane operations Reserve, Arm and PopPassed, plus events that on
// firing schedule a child, halt the run, stop a timer or operate on a
// lane — and runs the same operations on the wheel engine and on
// refEngine, where a reserved key is an ordinary no-op event. After every
// operation the clocks, pending and processed counts, passed-key counts
// and watchdog errors must agree and the wheel must pass its self-check;
// at the end the dispatch traces must be identical.
//
//	go test -fuzz FuzzWheelVsHeap -fuzztime 10s ./internal/sim
//
// Encoding: an opcode byte (mod 13), then its operands. A delay is two
// bytes a, b: class a%8 picks zero or negative (a clamp), sub-tick,
// level 0, levels 1-2, mid levels, level 7, levels 7-9 out to the last
// representable time, or tick-aligned, and v = (a>>3)<<8 | b scales
// within the class (see fuzzDelay). An event is a
// delay followed by a kind byte (mod 7): plain; spawn, which reads a
// further delay and re-schedules itself that far ahead on every fire;
// halt, which calls Stop on the engine; stop, which reads a handle index
// and stops that timer when it fires; or, each reading a lane byte (mod
// 2), reserve, which also reads a delay; pop, which records the lane's
// passed count; and arm, which reads a further event to arm the lane's
// oldest unpassed key with. A reserved time is clamped up to the lane's
// previous one, keeping the lane monotone.
//
//	0 At(now+delay, event)    1 Schedule(delay, event)
//	2 After(delay, event)     3 Every(max(delay, 1), event)
//	4 Stop(handle i)          5 Reset(handle i, delay)
//	6 Run()                   7 RunUntil(now+delay)
//	8 SetBudget(n mod 16)     9 Step()
//	10 Reserve(lane, now+delay)
//	11 Arm(lane, event)       12 PopPassed(lane)
func FuzzWheelVsHeap(f *testing.F) {
	// Cancel-only drain through a cascade: After(1<<20).Stop(); Run();
	// then two events that straddle the cancelled slot must dispatch in
	// time order.
	f.Add([]byte{
		2, 3, 128, 0, // After(1048576)
		4, 0, // Stop(handle 0)
		6,             // Run()
		1, 15, 153, 0, // Schedule(104704)
		1, 135, 7, 0, // Schedule(1050368)
		6, // Run()
	})
	// Budget trip: events at 100 ns and 5 us, SetBudget(1), RunUntil(10us)
	// trips at 100; At(200) lands below the cursor; the rerun must
	// dispatch 100, 200, 5000.
	f.Add([]byte{
		0, 1, 100, 0, // At(100)
		0, 74, 196, 0, // At(5000)
		8, 1, // SetBudget(1)
		7, 154, 136, // RunUntil(10000)
		0, 1, 100, 0, // At(200)
		8, 0, // SetBudget(0)
		7, 154, 136, // RunUntil(10100)
	})
	// Budget trip whose head is then cancelled: a shorter RunUntil empties
	// the buffer short of the cursor, and At(2000) must still dispatch.
	f.Add([]byte{
		0, 1, 100, 0, // At(100)
		2, 74, 196, 0, // After(5000)
		8, 1, // SetBudget(1)
		7, 154, 136, // RunUntil(10000)
		4, 0, // Stop(handle 0)
		8, 0, // SetBudget(0)
		7, 10, 244, // RunUntil(now+1000)
		0, 10, 194, 0, // At(now+900)
		7, 10, 244, // RunUntil(now+1000)
		6, // Run()
	})
	// A same-tick spawn chain and a halting event inside a periodic mix.
	f.Add([]byte{
		1, 0, 0, 1, 1, 3, // Schedule(0, spawn every 3 ns)
		3, 2, 40, 0, // Every(80)
		1, 2, 200, 2, // Schedule(400, halt)
		7, 2, 255, // RunUntil(now+510)
		6, // Run()
	})
	// Cancel-only drain from level 9's last slot: After(maxTime-2^50).Stop();
	// Run(); then events at maxTime-2^51 and maxTime, both at level 9,
	// must dispatch in time order and leave the clock at maxTime.
	f.Add([]byte{
		2, 6, 1, 0, // After(maxTime - 1<<50)
		4, 0, // Stop(handle 0)
		6,          // Run()
		1, 6, 2, 0, // Schedule(maxTime - 2<<50)
		1, 6, 0, 0, // Schedule(maxTime)
		6, // Run()
	})
	// Entries either side of the level 8/9 boundary, at 2^62-1 and
	// 2^62+2^50-1 ns; a window that dispatches the first and stops short
	// of level 9's slot; then a level-7 insert that lands on the second
	// entry's exact time and must fire after it.
	f.Add([]byte{
		0, 134, 0, 0, // At(maxTime - 4096<<50) = At(2^62 - 1)
		1, 126, 255, 0, // Schedule(maxTime - 4095<<50) = Schedule(2^62 + 2^50 - 1)
		7, 134, 0, // RunUntil(2^62 - 1)
		1, 5, 0, 0, // Schedule(2^50)
		6, // Run()
	})
	// A drain that ends on reserved keys: the clock must end at the last
	// key, 5 us, with both counted as processed.
	f.Add([]byte{
		0, 1, 100, 0, // At(100)
		10, 0, 74, 196, // Reserve(lane 0, 5000)
		10, 1, 2, 0, // Reserve(lane 1, now)
		6,     // Run()
		12, 0, // PopPassed(lane 0)
	})
	// Step over a reserved key that comes first, then the event after it.
	f.Add([]byte{
		10, 0, 1, 100, // Reserve(lane 0, 100)
		0, 1, 200, 0, // At(200)
		9,     // Step()
		12, 0, // PopPassed(lane 0)
		9, // Step()
		9, // Step()
	})
	// Budget trip on a reserved key: SetBudget(2) stops before the event
	// at 300 with the clock on the key at 150.
	f.Add([]byte{
		0, 1, 100, 0, // At(100)
		10, 1, 1, 150, // Reserve(lane 1, 150)
		0, 2, 150, 0, // At(300)
		8, 2, // SetBudget(2)
		6,    // Run()
		8, 0, // SetBudget(0)
		7, 2, 0, // RunUntil(now)
		6, // Run()
	})
	// An armed key keeps its seq: At(500), Reserve(500), At(500), then
	// arming the key must dispatch it between the two events.
	f.Add([]byte{
		0, 2, 250, 0, // At(500)
		10, 0, 2, 250, // Reserve(lane 0, 500)
		0, 2, 250, 0, // At(500)
		11, 0, 0, // Arm(lane 0, plain)
		6, // Run()
	})
	// Lane operations inside callbacks: an event at 100 reserves a key
	// at 100 on lane 0, one at 100 arms it, one at 200 pops it.
	f.Add([]byte{
		0, 1, 100, 4, 0, 0, 0, // At(100, reserve(lane 0, now))
		0, 1, 100, 6, 0, 0, // At(100, arm(lane 0, plain))
		0, 1, 200, 5, 0, // At(200, pop(lane 0))
		6, // Run()
	})
	// Same-time keys either side of an event at 100 that pops the lane:
	// only the first has passed when it fires.
	f.Add([]byte{
		10, 0, 1, 100, // Reserve(lane 0, 100)
		0, 1, 100, 5, 0, // At(100, pop(lane 0))
		10, 0, 1, 100, // Reserve(lane 0, 100)
		6, // Run()
	})
	// A budget spent just before a lane key while the wheel's next event
	// lies beyond the key in a higher level: the trip must not fill the
	// wheel up to the key, which would leave the cursor ahead of the
	// clock.
	f.Add([]byte{
		0, 55, 48, 0, // At(now+405504, plain)
		9,    // Step()
		8, 1, // SetBudget(1)
		3, 143, 48, 5, 0, // Every(1126400, pop(lane 0))
		10, 0, 231, 48, // Reserve(lane 0, now+1847296)
		7, 67, 48, // RunUntil(now+17170432)
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := runFuzzOps(newWheelEngine(NewEngine()), data)
		r := runFuzzOps(&refEngine{}, data)
		if w.err != nil {
			t.Fatalf("wheel self-check: %v", w.err)
		}
		for i := 0; i < len(w.steps) && i < len(r.steps); i++ {
			if w.steps[i] != r.steps[i] {
				t.Fatalf("op %d: wheel %+v, heap %+v", i, w.steps[i], r.steps[i])
			}
		}
		if !slices.Equal(w.trace, r.trace) {
			t.Fatalf("dispatch traces differ:\nwheel %v\nheap  %v", w.trace, r.trace)
		}
	})
}

const (
	fuzzMaxOps   = 512
	fuzzMaxFires = 4096
)

// fuzzStep is what the engine showed after one operation.
type fuzzStep struct {
	op        byte
	now       Time
	pending   int
	processed uint64
	popped    int // PopPassed's count, for op 12
	fires     int
	tripped   bool
}

type fuzzResult struct {
	steps []fuzzStep
	trace []fireRec // pop events record the count as a fireRec with id -1-count
	err   error     // first self-check failure
}

// fuzzBytes reads the operation stream; past its end it reads zeros.
type fuzzBytes struct {
	b []byte
	i int
}

func (s *fuzzBytes) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	c := s.b[s.i]
	s.i++
	return c
}

// fuzzDelay decodes a two-byte delay (see FuzzWheelVsHeap).
func fuzzDelay(s *fuzzBytes) Time {
	a, b := s.next(), s.next()
	v := Time(a>>3)<<8 | Time(b)
	switch a % 8 {
	case 0:
		return -(v % 1000) // zero, or negative: clamps to now
	case 1:
		return v % (1 << tickBits) // sub-tick
	case 2:
		return 2 * v // level 0
	case 3:
		return v << 13 // levels 1-2
	case 4:
		return v << 36 // mid and top levels
	case 5:
		return Time(1)<<50 + v<<37 // level 7
	case 6:
		// Levels 7-9, out to the last representable time. From a clock
		// past v<<50 the caller's now+delay wraps negative and clamps.
		return maxTime - v<<50
	default:
		return v << tickBits // tick-aligned
	}
}

// runFuzzOps decodes data and runs it on eng. The decoding never depends
// on the engine, so both engines see the same operations.
func runFuzzOps(eng tengine, data []byte) fuzzResult {
	s := &fuzzBytes{b: data}
	var res fuzzResult
	var handles []thandle
	verify := func() {
		if res.err == nil {
			if err := eng.check(); err != nil {
				res.err = fmt.Errorf("op %d, %d fires, clock %v: %w", len(res.steps), len(res.trace), eng.now(), err)
			}
		}
	}
	created := 0
	// last is each lane's latest reserved time; reserve clamps up to it.
	var last [testLanes]Time
	reserve := func(lane int, d Time) {
		t := eng.now() + d
		if t < eng.now() {
			t = eng.now() // a negative delay, or a sum that wrapped
		}
		if t < last[lane] {
			t = last[lane]
		}
		last[lane] = t
		eng.reserve(lane, t)
	}
	// event decodes a kind byte (and its operands) into a callback.
	var event func() func()
	event = func() func() {
		id := created
		created++
		var fire func()
		switch s.next() % 7 {
		case 0:
			fire = func() {}
		case 1:
			d := fuzzDelay(s)
			fire = func() {
				if len(res.trace) < fuzzMaxFires {
					eng.schedule(d, func() { res.trace = append(res.trace, fireRec{id: id, at: eng.now()}); fire() })
				}
			}
		case 2:
			fire = eng.halt
		case 3:
			i := int(s.next())
			fire = func() {
				if len(handles) > 0 {
					handles[i%len(handles)].stop()
				}
			}
		case 4:
			lane, d := int(s.next()%testLanes), fuzzDelay(s)
			fire = func() { reserve(lane, d) }
		case 5:
			lane := int(s.next() % testLanes)
			fire = func() {
				res.trace = append(res.trace, fireRec{id: -1 - eng.popPassed(lane), at: eng.now()})
			}
		case 6:
			lane := int(s.next() % testLanes)
			armed := event()
			fire = func() { eng.arm(lane, armed) }
		}
		return func() {
			res.trace = append(res.trace, fireRec{id: id, at: eng.now()})
			if len(res.trace) >= fuzzMaxFires {
				// Cut every periodic timer loose so Run terminates.
				for _, h := range handles {
					h.stop()
				}
				return
			}
			fire()
			verify()
		}
	}
	for s.i < len(s.b) && len(res.steps) < fuzzMaxOps {
		op := s.next() % 13
		var err error
		popped := 0
		switch op {
		case 0:
			d := fuzzDelay(s)
			eng.at(eng.now()+d, event())
		case 1:
			d := fuzzDelay(s)
			eng.schedule(d, event())
		case 2:
			d := fuzzDelay(s)
			handles = append(handles, eng.after(d, event()))
		case 3:
			d := fuzzDelay(s)
			if d < 1 {
				d = 1
			}
			handles = append(handles, eng.every(d, event()))
		case 4:
			i := int(s.next())
			if len(handles) > 0 {
				handles[i%len(handles)].stop()
			}
		case 5:
			i := int(s.next())
			d := fuzzDelay(s)
			if len(handles) > 0 {
				handles[i%len(handles)].reset(d)
			}
		case 6:
			err = eng.run()
		case 7:
			err = eng.runUntil(eng.now() + fuzzDelay(s))
		case 8:
			eng.setBudget(uint64(s.next() % 16))
		case 9:
			eng.step()
		case 10:
			lane := int(s.next() % testLanes)
			reserve(lane, fuzzDelay(s))
		case 11:
			lane := int(s.next() % testLanes)
			eng.arm(lane, event())
		case 12:
			popped = eng.popPassed(int(s.next() % testLanes))
		}
		verify()
		res.steps = append(res.steps, fuzzStep{op: op, now: eng.now(), pending: eng.pending(),
			processed: eng.processed(), popped: popped, fires: len(res.trace), tripped: err != nil})
	}
	return res
}
