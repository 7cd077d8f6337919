package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"testing"
)

// Differential test: the retired container/heap engine (reproduced below
// as refEngine, with the Timer semantics layered on its records) and the
// timer wheel run identical randomized schedules — same-time ties,
// negative delays, scheduling-in-the-past, delays that reach the top
// wheel levels, and stop/reset storms — and must produce bit-identical dispatch order,
// final clocks, and pending counts. The op stream is derived from a
// shared seeded RNG consumed in dispatch order, so the slightest order
// divergence derails the streams and fails the comparison. The wheel's
// self-check (check_test.go) runs after every operation.

// tengine abstracts the two engines under test.
type tengine interface {
	schedule(delay Time, fn func())
	at(t Time, fn func())
	after(delay Time, fn func()) thandle
	every(period Time, fn func()) thandle
	now() Time
	run() error
	runUntil(t Time) error
	setBudget(n uint64)
	halt()
	pending() int
	step() bool
	processed() uint64
	// Lane operations on lane i (< testLanes): reserve a key at t (the
	// caller keeps each lane monotone), arm the oldest unpassed key with
	// fn (false when there is none), and pop the count of passed keys.
	reserve(i int, t Time)
	arm(i int, fn func()) bool
	popPassed(i int) int
	// check reports a broken queue invariant (nil for the reference).
	check() error
}

// testLanes is how many lanes each test engine has.
const testLanes = 2

// thandle abstracts a cancellable timer handle.
type thandle interface {
	stop() bool
	reset(d Time) bool
}

// --- wheel side: thin adapters over the real Engine/Timer ---

type wheelEngine struct {
	e     *Engine
	lanes [testLanes]*Lane
}

func newWheelEngine(e *Engine) *wheelEngine {
	w := &wheelEngine{e: e}
	for i := range w.lanes {
		w.lanes[i] = e.NewLane()
	}
	return w
}

func (w *wheelEngine) schedule(d Time, fn func())      { w.e.Schedule(d, fn) }
func (w *wheelEngine) at(t Time, fn func())            { w.e.At(t, fn) }
func (w *wheelEngine) after(d Time, fn func()) thandle { return wheelHandle{w.e.After(d, fn)} }
func (w *wheelEngine) every(p Time, fn func()) thandle { return wheelHandle{w.e.Every(p, fn)} }
func (w *wheelEngine) now() Time                       { return w.e.Now() }
func (w *wheelEngine) run() error                      { return w.e.Run() }
func (w *wheelEngine) runUntil(t Time) error           { return w.e.RunUntil(t) }
func (w *wheelEngine) setBudget(n uint64)              { w.e.SetBudget(n) }
func (w *wheelEngine) halt()                           { w.e.Stop() }
func (w *wheelEngine) pending() int                    { return w.e.Pending() }
func (w *wheelEngine) step() bool                      { return w.e.Step() }
func (w *wheelEngine) processed() uint64               { return w.e.Processed() }
func (w *wheelEngine) reserve(i int, t Time)           { w.lanes[i].Reserve(t) }
func (w *wheelEngine) popPassed(i int) int             { return w.lanes[i].PopPassed() }

// check asserts the wheel's invariants and that the engine's count of
// lane keys, which decides when a budgeted run must step keys one at a
// time, matches what its lanes hold.
func (w *wheelEngine) check() error {
	n := 0
	for _, l := range w.e.lanes {
		n += l.keys.Len()
	}
	if uint64(n) != w.e.laneKeys {
		return fmt.Errorf("engine counts %d lane keys, lanes hold %d", w.e.laneKeys, n)
	}
	return w.e.wheel.check(w.e.now)
}

func (w *wheelEngine) arm(i int, fn func()) bool {
	if w.lanes[i].Len() == 0 {
		return false
	}
	w.lanes[i].Arm(fn)
	return true
}

type wheelHandle struct{ t *Timer }

func (h wheelHandle) stop() bool        { return h.t.Stop() }
func (h wheelHandle) reset(d Time) bool { return h.t.Reset(d) }

// --- reference side: the old global binary heap, verbatim ordering ---

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	period Time
	state  uint8 // reuses the tm* state constants
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refEngine struct {
	clock Time
	queue refQueue
	seq   uint64
	live  int

	// Engine.Stop and the SetBudget watchdog, with the Engine's semantics.
	stopped bool
	nproc   uint64
	budget  uint64 // absolute processed-count limit (0 = off)
	tripped bool

	// Lanes, eagerly: a reserved key is an ordinary no-op event, listed
	// here until it is seen dispatched (passed) or armed (its fn filled in).
	lanes  [testLanes][]*refEvent
	passed [testLanes]int
}

var errRefBudget = errors.New("ref: event budget exhausted")

func (r *refEngine) push(ev *refEvent, t Time) {
	if t < r.clock {
		t = r.clock
	}
	r.seq++
	ev.at = t
	ev.seq = r.seq
	ev.state = tmWheel
	heap.Push(&r.queue, ev)
	r.live++
}

func (r *refEngine) schedule(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	r.push(&refEvent{fn: fn}, r.clock+d)
}

func (r *refEngine) at(t Time, fn func()) { r.push(&refEvent{fn: fn}, t) }

func (r *refEngine) after(d Time, fn func()) thandle {
	if d < 0 {
		d = 0
	}
	ev := &refEvent{fn: fn}
	r.push(ev, r.clock+d)
	return &refHandle{e: r, ev: ev}
}

func (r *refEngine) every(p Time, fn func()) thandle {
	ev := &refEvent{fn: fn, period: p}
	r.push(ev, r.clock+p)
	return &refHandle{e: r, ev: ev}
}

func (r *refEngine) now() Time         { return r.clock }
func (r *refEngine) pending() int      { return r.live }
func (r *refEngine) check() error      { return nil }
func (r *refEngine) halt()             { r.stopped = true }
func (r *refEngine) processed() uint64 { return r.nproc }

func (r *refEngine) reserve(i int, t Time) {
	ev := &refEvent{fn: func() {}}
	r.push(ev, t)
	r.lanes[i] = append(r.lanes[i], ev)
}

// settle drops lane i's dispatched keys from its front, counting them.
func (r *refEngine) settle(i int) {
	for len(r.lanes[i]) > 0 && r.lanes[i][0].state != tmWheel {
		r.lanes[i] = r.lanes[i][1:]
		r.passed[i]++
	}
}

func (r *refEngine) arm(i int, fn func()) bool {
	r.settle(i)
	if len(r.lanes[i]) == 0 {
		return false
	}
	r.lanes[i][0].fn = fn
	r.lanes[i] = r.lanes[i][1:]
	return true
}

func (r *refEngine) popPassed(i int) int {
	r.settle(i)
	n := r.passed[i]
	r.passed[i] = 0
	return n
}

func (r *refEngine) step() bool {
	if r.next() == nil {
		return false
	}
	r.dispatch()
	return true
}

func (r *refEngine) setBudget(n uint64) {
	r.tripped = false
	r.budget = 0
	if n > 0 {
		r.budget = r.nproc + n
	}
}

func (r *refEngine) overBudget() bool {
	if r.budget > 0 && r.nproc >= r.budget {
		r.tripped = true
	}
	return r.tripped
}

// next drops cancelled entries and returns the earliest live one, or nil.
func (r *refEngine) next() *refEvent {
	for len(r.queue) > 0 && r.queue[0].state == tmDead {
		heap.Pop(&r.queue)
	}
	if len(r.queue) == 0 {
		return nil
	}
	return r.queue[0]
}

func (r *refEngine) dispatch() {
	ev := heap.Pop(&r.queue).(*refEvent)
	ev.state = tmRunning
	r.clock = ev.at
	r.live--
	r.nproc++
	ev.fn()
	if ev.state == tmRunning {
		if ev.period > 0 {
			r.push(ev, r.clock+ev.period)
		} else {
			ev.state = tmFree
		}
	}
}

func (r *refEngine) run() error {
	r.stopped = false
	for !r.stopped {
		if r.overBudget() {
			return errRefBudget
		}
		if r.next() == nil {
			break
		}
		r.dispatch()
	}
	return nil
}

func (r *refEngine) runUntil(t Time) error {
	r.stopped = false
	for !r.stopped {
		if ev := r.next(); ev == nil || ev.at > t {
			break
		}
		if r.overBudget() {
			return errRefBudget
		}
		r.dispatch()
	}
	if !r.stopped && r.clock < t {
		r.clock = t
	}
	return nil
}

type refHandle struct {
	e  *refEngine
	ev *refEvent
}

func (h *refHandle) stop() bool {
	switch h.ev.state {
	case tmWheel:
		h.ev.state = tmDead
		h.e.live--
		return true
	case tmRunning:
		h.ev.state = tmDead
		return false
	}
	return false
}

func (h *refHandle) reset(d Time) bool {
	was := h.stop()
	if d < 0 {
		d = 0
	}
	ev := &refEvent{fn: h.ev.fn, period: h.ev.period}
	h.e.push(ev, h.e.clock+d)
	h.ev = ev
	return was
}

// --- the shared randomized program ---

type fireRec struct {
	id int
	at Time
}

const (
	diffMaxEvents = 3000
	diffMaxFires  = 20000
	// Running to 2^62 ns dispatches entries placed at every level,
	// level 9 (2^62 ns and more ahead of the cursor) included.
	diffHorizon = Time(1) << 62
	diffInitial = 100
)

func randDelay(rng *RNG) Time {
	switch rng.Intn(7) {
	case 0:
		return Time(rng.Intn(4)) // same-timestamp ties and sub-tick gaps
	case 1:
		return Time(rng.Intn(wheelSlots << tickBits)) // level 0
	case 2:
		return Time(rng.Intn(1 << 20)) // levels 1-2
	case 3:
		return Time(rng.Int63n(1 << 36)) // mid levels
	case 4:
		return Time(rng.Int63n(1 << 49)) // level 6
	case 5:
		return Time(1)<<50 + Time(rng.Int63n(1<<51)) // level 7
	default:
		return Time(1)<<61 + Time(rng.Int63n(1<<61)) // levels 8-9
	}
}

// windowDelay draws a RunUntil window length or a between-window delay:
// zero, sub-tick, within level 0, or levels 1-2.
func windowDelay(rng *RNG) Time {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return Time(rng.Intn(1 << tickBits))
	case 2:
		return Time(rng.Intn(wheelSlots << tickBits))
	default:
		return Time(rng.Intn(1 << 26))
	}
}

// progResult is what one engine produced for a program.
type progResult struct {
	trace   []fireRec
	now     Time
	pending int
	err     error // first self-check failure
}

// runProgram drives one engine through the seed-determined schedule and
// returns its dispatch trace, final clock, and pending count. Callbacks
// create at most maxEvents events. With windows = 0 one RunUntil covers
// the whole run. Otherwise the run first advances
// through that many RunUntil(now+d) windows, with Schedule/After/At/Stop/
// Reset calls made between windows, outside any callback, before the final
// RunUntil drains it.
func runProgram(eng tengine, seed uint64, maxEvents, windows int) progResult {
	rng := NewRNG(seed)
	var res progResult
	var handles []thandle
	created := 0
	verify := func(where string) {
		if res.err != nil {
			return
		}
		if err := eng.check(); err != nil {
			res.err = fmt.Errorf("%s, %d fires, clock %v: %w", where, len(res.trace), eng.now(), err)
		}
	}

	var makeEvent func() func()
	makeEvent = func() func() {
		id := created
		created++
		return func() {
			res.trace = append(res.trace, fireRec{id: id, at: eng.now()})
			if len(res.trace) >= diffMaxFires {
				// Cut every periodic timer loose so the run terminates.
				for _, h := range handles {
					h.stop()
				}
				handles = handles[:0]
				return
			}
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				op := rng.Intn(10)
				if op <= 7 && created >= maxEvents {
					continue
				}
				switch op {
				case 0, 1, 2:
					eng.schedule(randDelay(rng), makeEvent())
				case 3: // exact same-time tie
					eng.schedule(0, makeEvent())
				case 4: // negative delay: clamps to now
					eng.schedule(-Time(rng.Intn(1000)), makeEvent())
				case 5: // absolute time in the past: clamps to now
					past := eng.now() - Time(rng.Int63n(int64(eng.now())+1))
					eng.at(past, makeEvent())
				case 6:
					handles = append(handles, eng.after(randDelay(rng), makeEvent()))
				case 7:
					period := Time(1 + rng.Intn(200_000))
					handles = append(handles, eng.every(period, makeEvent()))
				case 8: // stop storm
					for j := 0; j < 3 && len(handles) > 0; j++ {
						handles[rng.Intn(len(handles))].stop()
					}
				case 9: // reset storm
					if len(handles) > 0 {
						handles[rng.Intn(len(handles))].reset(randDelay(rng))
					}
				}
				verify("in callback")
			}
		}
	}

	for i := 0; i < diffInitial; i++ {
		eng.schedule(randDelay(rng), makeEvent())
	}
	for w := 0; w < windows; w++ {
		for n := rng.Intn(3); n > 0; n-- {
			switch rng.Intn(5) {
			case 0:
				eng.schedule(windowDelay(rng), makeEvent())
			case 1:
				handles = append(handles, eng.after(windowDelay(rng), makeEvent()))
			case 2: // at or before the clock: clamps to now
				eng.at(eng.now()-Time(rng.Intn(1000)), makeEvent())
			case 3:
				if len(handles) > 0 {
					handles[rng.Intn(len(handles))].stop()
				}
			case 4:
				if len(handles) > 0 {
					handles[rng.Intn(len(handles))].reset(windowDelay(rng))
				}
			}
			verify("between windows")
		}
		_ = eng.runUntil(eng.now() + windowDelay(rng))
		verify("after window")
	}
	_ = eng.runUntil(diffHorizon)
	verify("after final run")
	res.now, res.pending = eng.now(), eng.pending()
	return res
}

// compareRuns fails t at the first difference between the wheel's and the
// reference's results for one program.
func compareRuns(t *testing.T, label string, w, r progResult) {
	t.Helper()
	if w.err != nil {
		t.Fatalf("%s: wheel self-check: %v", label, w.err)
	}
	min := len(w.trace)
	if len(r.trace) < min {
		min = len(r.trace)
	}
	for i := 0; i < min; i++ {
		if w.trace[i] != r.trace[i] {
			t.Fatalf("%s: dispatch %d diverges: wheel fired event %d at %v, heap fired event %d at %v",
				label, i, w.trace[i].id, w.trace[i].at, r.trace[i].id, r.trace[i].at)
		}
	}
	if len(w.trace) != len(r.trace) {
		t.Fatalf("%s: wheel fired %d events, heap fired %d (identical first %d)",
			label, len(w.trace), len(r.trace), min)
	}
	if w.now != r.now {
		t.Fatalf("%s: final clocks diverge: wheel %v, heap %v", label, w.now, r.now)
	}
	if w.pending != r.pending {
		t.Fatalf("%s: pending counts diverge: wheel %d, heap %d", label, w.pending, r.pending)
	}
	if len(w.trace) == 0 {
		t.Fatalf("%s: program fired no events", label)
	}
}

func TestWheelHeapDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 0xdecafbad, 42424242} {
		w := runProgram(newWheelEngine(NewEngine()), seed, diffMaxEvents, 0)
		r := runProgram(&refEngine{}, seed, diffMaxEvents, 0)
		compareRuns(t, fmt.Sprintf("seed %d", seed), w, r)
	}
}

// The windowed variant exercises what a single RunUntil never does: the
// bounded fill stopping at a window boundary (zero, sub-tick, level-0 and
// level 1-2 windows), and inserts, stops and resets made from outside any
// callback while the cursor sits wherever that fill left it. Fewer
// callback-created events keep the self-check, which walks every pending
// entry after each operation, affordable over 40 seeds.
func TestWheelHeapDifferentialWindowed(t *testing.T) {
	const seeds, maxEvents, windows = 40, 600, 3000
	for seed := uint64(1); seed <= seeds; seed++ {
		w := runProgram(newWheelEngine(NewEngine()), seed, maxEvents, windows)
		r := runProgram(&refEngine{}, seed, maxEvents, windows)
		compareRuns(t, fmt.Sprintf("seed %d", seed), w, r)
	}
}

// The same program with profiling armed must produce the identical trace:
// profiling observes without perturbing (DESIGN.md §12), and the wheel
// cascade counter must actually move under a schedule that spans every
// level.
func TestWheelDifferentialUnderProfiling(t *testing.T) {
	eng := NewEngine()
	eng.EnableProfiling()
	p := runProgram(newWheelEngine(eng), 7, diffMaxEvents, 0)
	plain := runProgram(newWheelEngine(NewEngine()), 7, diffMaxEvents, 0)
	if len(p.trace) != len(plain.trace) || p.now != plain.now {
		t.Fatalf("profiling perturbed the run: %d/%v vs %d/%v", len(p.trace), p.now, len(plain.trace), plain.now)
	}
	prof := eng.Profile()
	if prof.Cascades == 0 {
		t.Fatal("a multi-level schedule should record cascades")
	}
}
