package sim

import "testing"

func TestTimerAfterFiresOnce(t *testing.T) {
	eng := NewEngine()
	fired := 0
	tm := eng.After(10, func() { fired++ })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if eng.Now() != 10 {
		t.Fatalf("clock at %v, want 10", eng.Now())
	}
	if tm.Active() {
		t.Fatal("timer should be inactive after firing")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestTimerStopCancels(t *testing.T) {
	eng := NewEngine()
	fired := false
	tm := eng.After(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if tm.Active() {
		t.Fatal("stopped timer should be inactive")
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after stop, want 0", eng.Pending())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
	if eng.Now() != 0 {
		t.Fatalf("clock moved to %v with no live events", eng.Now())
	}
}

func TestTimerNegativeDelayClamped(t *testing.T) {
	eng := NewEngine()
	var at Time = -1
	eng.Schedule(5, func() {
		eng.After(-100, func() { at = eng.Now() })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5 {
		t.Fatalf("negative-delay timer fired at %v, want 5", at)
	}
}

func TestTimerEveryPeriodic(t *testing.T) {
	eng := NewEngine()
	var fires []Time
	var tm *Timer
	tm = eng.Every(10, func() {
		fires = append(fires, eng.Now())
		if len(fires) == 3 {
			tm.Stop()
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times, want %d", len(fires), len(want))
	}
	for i, w := range want {
		if fires[i] != w {
			t.Fatalf("fire %d at %v, want %v", i, fires[i], w)
		}
	}
	if tm.Active() {
		t.Fatal("stopped periodic timer should be inactive")
	}
}

func TestTimerEveryAtAligned(t *testing.T) {
	eng := NewEngine()
	var fires []Time
	eng.Schedule(7, func() {}) // move the clock off zero first
	var tm *Timer
	tm = eng.EveryAt(10, 10, func() {
		fires = append(fires, eng.Now())
		if len(fires) == 2 {
			tm.Stop()
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 2 || fires[0] != 10 || fires[1] != 20 {
		t.Fatalf("aligned fires = %v, want [10 20]", fires)
	}
}

func TestTimerEveryPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0, ...) should panic")
		}
	}()
	NewEngine().Every(0, func() {})
}

// A periodic timer's re-arm consumes a fresh sequence number after the
// callback returns — identical to a callback that re-schedules itself as
// its last statement. Events scheduled during the callback at the same
// future timestamp therefore run before the next periodic fire.
func TestTimerEveryReArmOrdering(t *testing.T) {
	eng := NewEngine()
	var order []string
	var tick *Timer
	rounds := 0
	tick = eng.Every(10, func() {
		rounds++
		order = append(order, "tick")
		if rounds == 1 {
			// Same timestamp as the next periodic fire, scheduled before
			// the re-arm happens: must dispatch first.
			eng.Schedule(10, func() { order = append(order, "probe") })
		}
		if rounds == 2 {
			tick.Stop()
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"tick", "probe", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimerResetPostpones(t *testing.T) {
	eng := NewEngine()
	fired := 0
	tm := eng.After(10, func() { fired++ })
	eng.Schedule(5, func() {
		if !tm.Reset(20) { // was pending: postpone to t=25
			t.Error("Reset on a pending timer should report true")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly 1", fired)
	}
	if eng.Now() != 25 {
		t.Fatalf("clock at %v, want 25 (reset target)", eng.Now())
	}
}

func TestTimerResetAfterFireReArms(t *testing.T) {
	eng := NewEngine()
	var fires []Time
	tm := eng.After(10, func() { fires = append(fires, eng.Now()) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Reset(5) {
		t.Fatal("Reset after fire should report false (nothing was pending)")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 2 || fires[0] != 10 || fires[1] != 15 {
		t.Fatalf("fires = %v, want [10 15]", fires)
	}
}

func TestTimerResetTakesFreshSeq(t *testing.T) {
	eng := NewEngine()
	var order []string
	tm := eng.After(10, func() { order = append(order, "reset-timer") })
	eng.Schedule(5, func() {
		eng.Schedule(5, func() { order = append(order, "plain") }) // also t=10
		tm.Reset(5)                                                // re-armed at t=10, after "plain" in seq order
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "plain" || order[1] != "reset-timer" {
		t.Fatalf("order = %v, want [plain reset-timer]", order)
	}
}

func TestTimerStopInsideOwnCallback(t *testing.T) {
	eng := NewEngine()
	fires := 0
	var tm *Timer
	tm = eng.Every(10, func() {
		fires++
		if tm.Stop() {
			t.Error("Stop from inside the firing callback should report false")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("fired %d times, want 1 (stopped during first fire)", fires)
	}
}

func TestTimerZeroValueInert(t *testing.T) {
	var tm Timer
	if tm.Active() {
		t.Fatal("zero Timer should be inactive")
	}
	if tm.Stop() {
		t.Fatal("zero Timer Stop should report false")
	}
	if tm.Reset(10) {
		t.Fatal("zero Timer Reset should report false")
	}
}

// Pool reuse must not let a stale handle touch a recycled entry: after a
// timer fires and its entry is reused by a new timer, the old handle's
// Stop/Active must not affect the new one.
func TestTimerHandleStaleAfterReuse(t *testing.T) {
	eng := NewEngine()
	old := eng.After(1, func() {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The pool now holds old's entry; the next arm reuses it.
	fired := false
	fresh := eng.After(5, func() { fired = true })
	if old.Stop() {
		t.Fatal("stale handle Stop should report false")
	}
	if old.Active() {
		t.Fatal("stale handle should be inactive")
	}
	if !fresh.Active() {
		t.Fatal("fresh timer must remain active despite stale-handle Stop")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("fresh timer must fire despite stale-handle Stop")
	}
}

// Satellite: Stop()-vs-RunUntil semantics, pinned. A RunUntil halted by
// Stop leaves the clock at the last dispatched event; only a completed
// RunUntil advances the clock to t.
func TestRunUntilStoppedDoesNotAdvanceClock(t *testing.T) {
	eng := NewEngine()
	for i := 1; i <= 10; i++ {
		at := Time(i * 10)
		eng.At(at, func() {
			if at == 30 {
				eng.Stop()
			}
		})
	}
	if err := eng.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 30 {
		t.Fatalf("stopped RunUntil left clock at %v, want 30 (last dispatched event)", eng.Now())
	}
	if eng.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", eng.Pending())
	}
	// Resuming completes the window and only then advances to t.
	if err := eng.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 1000 {
		t.Fatalf("completed RunUntil left clock at %v, want 1000", eng.Now())
	}
}

// Regression: draining the queue through Run when every remaining entry
// was cancelled must not leave the dispatch cursor ahead of the engine
// clock. fillBuf used to advance the cursor onto the cancelled entry's
// slot before discovering the wheel was empty; inserts between the clock
// and that stale cursor then sat at a negative tick delta, which the
// rotated occupancy scan read as nearly a full rotation in the future —
// events dispatched out of (time, seq) order and the clock ran backwards.
// Each case drains through a different wheel path: direct level-0
// extraction, or cascades from level 1, level 7, level 9, and level 9's
// last slot at the end of time.
func TestWheelCursorResyncAfterCancelOnlyDrain(t *testing.T) {
	cases := []struct {
		name  string
		delay Time // delay of the timer cancelled before the drain
	}{
		{"level0", 10 * Microsecond},
		{"cascade", 1 << 20}, // levels >= 1: drained by cascading, not extraction
		{"level7", 1 << 51},
		{"level9", 1 << 62},
		{"endOfTime", maxTime - 1600},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine()
			eng.After(tc.delay, func() { t.Error("cancelled timer fired") }).Stop()
			if err := eng.Run(); err != nil { // cancel-only drain
				t.Fatal(err)
			}
			if eng.Now() != 0 {
				t.Fatalf("clock at %v after cancel-only drain, want 0", eng.Now())
			}
			if err := eng.wheel.check(eng.Now()); err != nil {
				t.Fatal(err)
			}
			// Straddle the cancelled timer's tick: one event well before it,
			// one after. With a stale cursor the earlier event dispatched
			// second and the clock moved backwards.
			var fires []Time
			rec := func() { fires = append(fires, eng.Now()) }
			early, late := tc.delay/10+1, tc.delay+1600
			eng.Schedule(early, rec)
			eng.Schedule(late, rec)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if len(fires) != 2 || fires[0] != early || fires[1] != late {
				t.Fatalf("dispatch times = %v, want monotonic [%v %v]", fires, early, late)
			}
			if eng.Now() != late {
				t.Fatalf("clock at %v, want %v", eng.Now(), late)
			}
		})
	}
}

// The same stale-cursor hazard with the cancellation issued mid-run: a
// dispatched event stops the only remaining timer, so the queue drains
// with the clock at the stopping event while fillBuf scans across the
// cancelled entry's slot.
func TestWheelCursorResyncAfterMidRunCancelDrain(t *testing.T) {
	eng := NewEngine()
	victim := eng.After(10*Microsecond, func() { t.Error("cancelled timer fired") })
	eng.Schedule(5, func() { victim.Stop() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 5 {
		t.Fatalf("clock at %v after drain, want 5", eng.Now())
	}
	var fires []Time
	rec := func() { fires = append(fires, eng.Now()) }
	eng.Schedule(1*Microsecond, rec) // behind the victim's tick
	eng.Schedule(11600-5, rec)       // past it
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 2 || fires[0] != 5+1*Microsecond || fires[1] != 11600 {
		t.Fatalf("dispatch times = %v, want monotonic [%v %v]", fires, 5+1*Microsecond, Time(11600))
	}
}

// Timers pending past the stop point stay live and keep their times.
func TestRunUntilStoppedKeepsPendingTimers(t *testing.T) {
	eng := NewEngine()
	var fires []Time
	eng.After(10, func() { eng.Stop() })
	eng.After(20, func() { fires = append(fires, eng.Now()) })
	if err := eng.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 10 {
		t.Fatalf("clock at %v after stop, want 10", eng.Now())
	}
	if err := eng.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 || fires[0] != 20 {
		t.Fatalf("fires = %v, want [20]", fires)
	}
	if eng.Now() != 50 {
		t.Fatalf("clock at %v, want 50", eng.Now())
	}
}
