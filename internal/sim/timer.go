package sim

// Timer is a cancellable handle to a scheduled callback, replacing the
// hand-rolled idiom of closures capturing a "running" bool. A Timer is
// armed by After, Every, or EveryAt and owned by the goroutine driving
// the Engine — like the Engine itself it is not safe for concurrent use. The zero Timer is inert: Stop and Reset report false,
// Active reports false.
//
// Lifecycle rules (DESIGN.md §15):
//
//   - A one-shot Timer fires once and then becomes inactive; Stop before
//     the fire cancels it and reports true.
//   - A periodic Timer (Every/EveryAt) re-arms itself after each callback
//     return, consuming a fresh insertion sequence number each round —
//     exactly the ordering a callback re-scheduling itself as its last
//     statement produced. Stop cancels all future fires.
//   - Stop is O(1) and idempotent. It reports true only when it prevented
//     a pending fire; calling it from inside the timer's own callback
//     reports false (that fire already happened) but still cancels any
//     re-arm.
//   - Reset re-arms the timer with its original callback and period,
//     firing next after the given delay. It reports whether the timer was
//     still pending. The re-armed timer takes a fresh sequence number, so
//     it orders after events already queued at the same timestamp.
//
// Cancellation is lazy: Stop marks the entry dead and the wheel reclaims
// it when its slot is next touched, so a stop/reset storm stays O(1) per
// call with no queue restructuring.
type Timer struct {
	eng    *Engine
	fn     func()
	period Time // 0 for one-shot timers
	tm     *timer
	gen    uint32
}

// After schedules fn to run once after delay simulated nanoseconds and
// returns a cancellable handle. A negative delay is treated as zero, like
// Schedule.
func (e *Engine) After(delay Time, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	ti := &Timer{eng: e, fn: fn}
	ti.armAt(e.now + delay)
	return ti
}

// Every schedules fn to run every period simulated nanoseconds, first
// firing at now+period, and returns a cancellable handle. Every panics if
// period is not positive: a non-advancing periodic timer would wedge the
// simulation clock.
func (e *Engine) Every(period Time, fn func()) *Timer {
	return e.EveryAt(e.now+period, period, fn)
}

// EveryAt schedules fn to run periodically, first firing at absolute time
// first (past times clamp to now) and then every period after each
// callback returns. It panics if period is not positive.
func (e *Engine) EveryAt(first, period Time, fn func()) *Timer {
	if period <= 0 {
		panic("sim: periodic timer period must be positive")
	}
	ti := &Timer{eng: e, fn: fn, period: period}
	ti.armAt(first)
	return ti
}

// armAt takes a pooled entry for the handle and links it at time t.
func (t *Timer) armAt(at Time) {
	tm := t.eng.wheel.get()
	tm.fn = t.fn
	tm.period = t.period
	t.tm = tm
	t.gen = tm.gen
	t.eng.arm(tm, at)
}

// current returns the pooled entry if the handle still owns it (the
// generation check defeats pool reuse), else nil.
func (t *Timer) current() *timer {
	if t == nil || t.tm == nil || t.tm.gen != t.gen {
		return nil
	}
	return t.tm
}

// Active reports whether the timer is scheduled to fire (for a periodic
// timer: whether any future fire remains scheduled). It reports true
// while the timer's own callback runs, since a periodic timer will re-arm
// and a one-shot is still completing that fire.
//
//lint:ignore unreachable workload TestMemGenTimerReuse, TestRunnerThinkTimerReuse
func (t *Timer) Active() bool {
	tm := t.current()
	if tm == nil {
		return false
	}
	switch tm.state {
	case tmWheel, tmBuffered, tmRunning:
		return true
	}
	return false
}

// Stop cancels the timer. It reports true if it prevented a pending fire,
// false if the timer already fired, was already stopped, or is currently
// running its callback (a periodic timer is still cancelled for all
// future rounds in that case).
func (t *Timer) Stop() bool {
	tm := t.current()
	if tm == nil {
		return false
	}
	switch tm.state {
	case tmWheel, tmBuffered:
		tm.state = tmDead
		t.eng.wheel.pending--
		return true
	case tmRunning:
		// Mid-callback: this fire already happened. Marking the entry dead
		// makes the dispatch loop recycle it instead of re-arming.
		tm.state = tmDead
		return false
	}
	return false
}

// Reset re-arms the timer to fire its original callback after delay
// simulated nanoseconds (negative delays clamp to zero; a periodic timer
// keeps its original period for subsequent fires). It reports whether the
// timer was still pending when reset, matching time.Timer.Reset.
func (t *Timer) Reset(delay Time) bool {
	if t == nil || t.eng == nil {
		return false
	}
	wasPending := t.Stop()
	if delay < 0 {
		delay = 0
	}
	t.armAt(t.eng.now + delay)
	return wasPending
}
