// Package sim provides the discrete-event simulation engine that every
// device and workload model in this repository is built on.
//
// The engine maintains a virtual clock with nanosecond resolution and an
// event queue ordered by (time, insertion sequence). All models schedule
// callbacks on a single Engine; execution is strictly deterministic for a
// given seed and schedule order, which makes every experiment in the paper
// reproduction replayable bit-for-bit.
//
// The queue is a hierarchical timer wheel whose ten levels cover every
// Time, with pooled event objects (wheel.go), so the steady-state hot path
// allocates nothing and insert/cancel are O(1). Step and RunUntil share
// one dispatch path: a fill bounded by the run's end time finds the next
// event, and that entry is the one dispatched, with no separate look-ahead
// scan. On top of the raw Schedule/At callbacks, timer.go provides
// first-class cancellable and periodic timers (After/Every/EveryAt
// returning a Timer handle) that replace the hand-rolled closure-captured
// cancellation flags the models used to carry. lane.go provides lanes:
// reserved event keys that cost the wheel nothing unless their owner
// arms them, for events whose callback would do no work.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Common durations expressed in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now Time
	// posSeq completes the engine's position (now, posSeq): every event
	// key at or before it has passed (DESIGN.md §15). Dispatch sets it to
	// the running event's seq; a run that ends by draining or by reaching
	// its end time sets it to seq, passing every key assigned so far at
	// the clock's time.
	posSeq  uint64
	wheel   wheel
	seq     uint64
	stopped bool
	// processed counts executed events and passed lane keys, exposed for
	// instrumentation. Lanes add their passed keys when settled, so read
	// it through Processed.
	processed uint64
	// lanes are the engine's reserved-key lanes (NewLane); laneKeys
	// counts the keys they hold, passed or not, that no settle has
	// removed yet.
	lanes    []*Lane
	laneKeys uint64

	// Watchdog budget (SetBudget): a run that executes more events than
	// budgeted returns an error instead of spinning forever.
	budgetEvents uint64 // absolute processed-count limit (0 = off)
	budgetErr    error

	// prof, when non-nil, accumulates the self-profiling counters of
	// EnableProfiling. The hot paths pay exactly one nil check when
	// profiling is off (the cheap-when-disabled contract, DESIGN.md §12).
	prof *EngineProfile
}

// EngineProfile is a snapshot of the engine's self-profiling counters:
// the raw cost drivers of the event hot path, for BenchmarkEngineHotPath
// and BENCH_engine.json. All counts are deterministic for a given
// schedule — profiling observes the run without perturbing it.
//
// The profile counts only what the wheel did: a lane key that passes
// without being armed is counted by Processed but is no event, insert
// or depth here.
type EngineProfile struct {
	// Events is the number of events dispatched since profiling was enabled.
	Events uint64
	// Inserts counts timer-wheel insertions (one per At/Schedule call,
	// timer arm or armed lane key, including periodic re-arms).
	Inserts uint64
	// MaxDepth is the high-water mark of simultaneously pending wheel
	// events — the timer depth the queue actually had to organize.
	MaxDepth int
	// Cascades counts live entries redistributed from a higher wheel level
	// to a lower one while the dispatch cursor advanced (the deferred part
	// of the wheel's O(1) insert).
	Cascades uint64
}

// EnableProfiling arms the self-profiling counters. Counters start from
// zero at the call; re-enabling resets them. Profiling is off by default
// and costs the hot path a single pointer nil check when off.
func (e *Engine) EnableProfiling() {
	e.prof = &EngineProfile{}
	e.wheel.cascades = 0
}

// Profile returns a snapshot of the self-profiling counters (the zero
// profile when profiling was never enabled).
func (e *Engine) Profile() EngineProfile {
	if e.prof == nil {
		return EngineProfile{}
	}
	p := *e.prof
	p.Cascades = e.wheel.cascades
	return p
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	// Pre-size the dispatch buffer so same-tick batches don't grow the
	// slice mid-run: the hot path stays allocation-free even when a
	// larger coincidence batch shows up long after start-up.
	e.wheel.buf = make([]*timer, 0, 128)
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far, counting each
// lane key the engine has passed as one event.
func (e *Engine) Processed() uint64 {
	for _, l := range e.lanes {
		l.settle()
	}
	return e.processed
}

// Pending returns the number of live events waiting in the queue plus
// the lane keys not yet passed (cancelled timers stop counting the moment
// Stop succeeds).
//
//lint:ignore unreachable workload TestMemGenTimerReuse
func (e *Engine) Pending() int {
	n := e.wheel.pending
	for _, l := range e.lanes {
		n += l.Len()
	}
	return n
}

// Schedule runs fn after delay simulated nanoseconds. A negative delay is
// treated as zero (run at the current time, after already-queued events at
// this time).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t. Scheduling in the past is an error in the
// model; it is clamped to now so simulations degrade loudly in latency
// rather than corrupting the clock.
func (e *Engine) At(t Time, fn func()) {
	tm := e.wheel.get()
	tm.fn = fn
	e.arm(tm, t)
}

// arm assigns the next insertion sequence number to tm and links it into
// the queue at absolute time t (past times clamp to now). Shared by At and
// the Timer API so ties always break in global scheduling order.
func (e *Engine) arm(tm *timer, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	tm.at = t
	tm.seq = e.seq
	e.insert(tm)
}

// insert links a keyed timer into the wheel and counts the insert.
func (e *Engine) insert(tm *timer) {
	e.wheel.insert(tm)
	if e.prof != nil {
		e.prof.Inserts++
		if d := e.wheel.pending; d > e.prof.MaxDepth {
			e.prof.MaxDepth = d
		}
	}
}

// maxTime is the latest representable time: Step's fill limit.
const maxTime = Time(1<<63 - 1)

// Step executes the single earliest event, or passes the earliest lane
// key when that comes first. It reports false when neither is left.
func (e *Engine) Step() bool {
	return e.advance(e.next(maxTime))
}

// advance dispatches the event or passes the lane key that next found,
// and reports false when it found neither.
func (e *Engine) advance(tm *timer, l *Lane) bool {
	switch {
	case l != nil:
		l.pass()
	case tm != nil:
		e.wheel.take()
		e.dispatch(tm)
	default:
		return false
	}
	return true
}

// next returns whichever comes first at or before limit: the wheel's
// earliest live event (tm) or the earliest unpassed lane key (its lane,
// l). At most one is non-nil. The wheel is filled no further than that
// lane key, so passing it never leaves the cursor ahead of the clock
// outside the buffered tick.
func (e *Engine) next(limit Time) (tm *timer, l *Lane) {
	var k laneKey
	for _, c := range e.lanes {
		c.settle()
		if c.keys.Len() == 0 {
			continue
		}
		if ck := c.keys.Peek(); ck.at <= limit && (l == nil || ck.before(k)) {
			l, k = c, ck
		}
	}
	if l != nil {
		limit = k.at
	}
	tm = e.wheel.head(limit)
	if tm != nil && l != nil && k.before(laneKey{tm.at, tm.seq}) {
		tm = nil
	}
	if tm != nil {
		l = nil
	}
	return tm, l
}

// dispatch runs one event the wheel has just handed out.
func (e *Engine) dispatch(tm *timer) {
	if e.prof != nil {
		e.prof.Events++
	}
	tm.state = tmRunning
	e.now = tm.at
	e.posSeq = tm.seq
	e.processed++
	tm.fn()
	// The callback may have cancelled or re-armed its own timer (state no
	// longer tmRunning); only an undisturbed periodic timer re-arms here,
	// consuming a fresh sequence number exactly like a callback that
	// re-schedules itself as its last statement.
	if tm.state == tmRunning {
		if tm.period > 0 {
			e.arm(tm, e.now+tm.period)
		} else {
			e.wheel.recycle(tm)
		}
	} else if tm.state == tmDead {
		e.wheel.recycle(tm)
	}
}

// SetBudget arms the watchdog: subsequent Run/RunUntil/RunFor calls return
// an error once more than maxEvents further events execute. SetBudget(0)
// disarms the watchdog and clears any tripped state. The budget exists so
// a lost completion callback under fault injection — which keeps
// closed-loop workloads refilling forever — fails a run loudly instead of
// spinning without end.
//
// A trip lands on the same lane key, count and clock as if each key were
// an event: once the budget is close enough that passing every key held
// could spend it, runs pass keys one at a time.
func (e *Engine) SetBudget(maxEvents uint64) {
	e.budgetErr = nil
	if maxEvents > 0 {
		e.budgetEvents = e.Processed() + maxEvents
	} else {
		e.budgetEvents = 0
	}
}

// budgetFar reports that the watchdog cannot trip before the next wheel
// event: even if every lane key held passed first, the count would stay
// under the budget. Runs then dispatch straight from the wheel and let
// lane keys pass unseen, as they do with no budget.
func (e *Engine) budgetFar() bool {
	return e.budgetEvents == 0 || e.processed+e.laneKeys < e.budgetEvents
}

// checkBudget trips the watchdog once the event budget is spent.
func (e *Engine) checkBudget() error {
	if e.budgetErr == nil && e.budgetEvents > 0 && e.Processed() >= e.budgetEvents {
		e.budgetErr = fmt.Errorf("sim: watchdog: event budget exhausted (%d events executed, clock at %v)", e.processed, e.now)
	}
	return e.budgetErr
}

// Run executes events until the queue drains or Stop is called. A drain
// passes every lane key left, so the clock ends at the last key. It
// returns a non-nil error only when a SetBudget watchdog limit is
// exceeded.
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if !e.budgetFar() {
			if err := e.checkBudget(); err != nil {
				return err
			}
			if !e.Step() {
				break
			}
			continue
		}
		tm := e.wheel.head(maxTime)
		if tm == nil {
			e.drainLanes()
			break
		}
		e.wheel.take()
		e.dispatch(tm)
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (if the clock has not already passed it). A run halted by Stop
// leaves the clock at the last dispatched event instead of advancing it to
// t: the simulation was interrupted mid-window, and jumping the clock
// forward would silently skip the rest of the window. It returns a non-nil
// error only when a SetBudget watchdog limit is exceeded while a live event
// <= t is pending (that exit also leaves the clock where the last event put
// it). Each iteration is one fill bounded by t: the event it finds is the
// one dispatched.
//
// Lane keys at or before t pass with the run; near a budget trip they
// pass one at a time, each checked against the budget like an event.
func (e *Engine) RunUntil(t Time) error {
	e.stopped = false
	for !e.stopped {
		if !e.budgetFar() {
			if e.Processed() >= e.budgetEvents {
				// Spent: the run trips if a key or an event at or before t
				// is pending. Keys are looked at first, since filling the
				// wheel up to a key would move its cursor past the clock
				// the trip leaves behind.
				if !e.laneDue(t) && e.wheel.head(t) == nil {
					break
				}
				return e.checkBudget()
			}
			if !e.advance(e.next(t)) {
				break
			}
			continue
		}
		tm := e.wheel.head(t)
		if tm == nil {
			break
		}
		e.wheel.take()
		e.dispatch(tm)
	}
	if !e.stopped && e.now <= t {
		e.now = t
		e.posSeq = e.seq
	}
	return nil
}

// RunFor executes events for d simulated nanoseconds from the current time.
func (e *Engine) RunFor(d Time) error { return e.RunUntil(e.now + d) }

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }
