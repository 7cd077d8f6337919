package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(100, func() {
		e.Schedule(-50, func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestEngineAtInPastClamped(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Schedule(100, func() {
		e.At(10, func() { at = e.Now() })
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past event ran at %v, want clamped to 100", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(25) ran %d events, want 2", len(ran))
	}
	if e.Now() != 25 {
		t.Fatalf("clock after RunUntil = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("after Run, ran %d events, want 4", len(ran))
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		e.Schedule(10, tick)
	}
	e.Schedule(10, tick)
	e.RunFor(100)
	if n != 10 {
		t.Fatalf("RunFor(100) with period 10 ticked %d times, want 10", n)
	}
	e.RunFor(50)
	if n != 15 {
		t.Fatalf("second RunFor(50) total %d ticks, want 15", n)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Time(i), func() {
			n++
			if n == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 5 {
		t.Fatalf("ran %d events after Stop, want 5", n)
	}
	// Run resumes after Stop.
	e.Run()
	if n != 100 {
		t.Fatalf("resume ran to %d, want 100", n)
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", e.Processed())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.50us"},
		{2500000, "2.50ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Fatalf("Second.Seconds() = %v", Second.Seconds())
	}
	if Microsecond.Micros() != 1 {
		t.Fatalf("Microsecond.Micros() = %v", Microsecond.Micros())
	}
	if Minute != 60*Second {
		t.Fatal("Minute != 60*Second")
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var maxd Time
		for _, d := range delays {
			d := Time(d)
			if d > maxd {
				maxd = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == maxd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogEventBudget(t *testing.T) {
	e := NewEngine()
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		e.Schedule(Microsecond, tick) // self-perpetuating: would run forever
	}
	e.Schedule(0, tick)
	e.SetBudget(100)
	if err := e.Run(); err == nil {
		t.Fatal("runaway loop did not trip the event budget")
	}
	if ticks > 100 {
		t.Fatalf("budget of 100 let %d events through", ticks)
	}
	if e.budgetErr == nil {
		t.Fatal("tripped state not sticky")
	}
	// Still tripped: further runs fail immediately without progress.
	before := e.Processed()
	if err := e.Run(); err == nil {
		t.Fatal("tripped watchdog allowed another run")
	}
	if e.Processed() != before {
		t.Fatal("tripped watchdog still executed events")
	}
	// Re-arming clears the trip.
	e.SetBudget(0)
	if e.budgetErr != nil {
		t.Fatal("SetBudget(0) did not clear the trip")
	}
}

func TestWatchdogBudgetIsAbsolute(t *testing.T) {
	// The limit is relative to the SetBudget call, not simulation zero.
	e := NewEngine()
	for i := 0; i < 50; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.SetBudget(50) // 50 more, on top of the 50 already processed
	for i := 0; i < 49; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("49 events within a fresh 50-event budget tripped: %v", err)
	}
}

func TestWatchdogDisarmedByDefault(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10000; i++ {
		e.Schedule(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("unarmed watchdog returned %v", err)
	}
}

func TestProfilingDisabledByDefault(t *testing.T) {
	e := NewEngine()
	if e.prof != nil {
		t.Fatal("fresh engine reports profiling enabled")
	}
	e.Schedule(0, func() {})
	e.Run()
	if p := e.Profile(); p != (EngineProfile{}) {
		t.Fatalf("disabled profile not zero: %+v", p)
	}
}

func TestProfilingCounters(t *testing.T) {
	e := NewEngine()
	e.EnableProfiling()
	// Three leaf events plus one that schedules two more: 6 pushes, 6 pops.
	for i := 0; i < 3; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	e.Schedule(5*Microsecond, func() {
		e.Schedule(Microsecond, func() {})
		e.Schedule(2*Microsecond, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	p := e.Profile()
	if p.Events != 6 || p.Inserts != 6 {
		t.Fatalf("counters: %+v, want 6 events/inserts", p)
	}
	// All four initial events were pending at once before any ran.
	if p.MaxDepth != 4 {
		t.Fatalf("MaxDepth = %d, want 4", p.MaxDepth)
	}
}

func TestProfilingReenableResets(t *testing.T) {
	e := NewEngine()
	e.EnableProfiling()
	e.Schedule(0, func() {})
	e.Run()
	e.EnableProfiling()
	if p := e.Profile(); p.Events != 0 || p.Inserts != 0 {
		t.Fatalf("re-enable did not reset: %+v", p)
	}
}

// A watchdog trip returns from RunUntil with the next event found but not
// dispatched, so the wheel's cursor may sit up to that event's tick ahead
// of the clock. An event scheduled in between must still dispatch in
// (time, seq) order: it goes into the dispatch buffer, ahead of the
// tripped head, instead of behind the cursor.
func TestRunUntilBudgetTripThenInsertBelowCursor(t *testing.T) {
	e := NewEngine()
	var fires []Time
	rec := func() { fires = append(fires, e.Now()) }
	e.At(100, rec)
	e.At(5*Microsecond, rec)
	e.SetBudget(1)
	if err := e.RunUntil(10 * Microsecond); err == nil {
		t.Fatal("RunUntil with a spent budget and an event pending returned nil")
	}
	if e.Now() != 100 {
		t.Fatalf("clock at %v after the trip, want 100", e.Now())
	}
	if err := e.wheel.check(e.Now()); err != nil {
		t.Fatal(err)
	}
	e.At(200, rec)
	if err := e.wheel.check(e.Now()); err != nil {
		t.Fatal(err)
	}
	e.SetBudget(0)
	if err := e.RunUntil(10 * Microsecond); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 200, 5000}
	if fmt.Sprint(fires) != fmt.Sprint(want) {
		t.Fatalf("dispatch times = %v, want %v", fires, want)
	}
	if e.Now() != 10*Microsecond {
		t.Fatalf("clock at %v, want 10us", e.Now())
	}
}

// The tripped head can also be cancelled, and a shorter RunUntil can then
// empty the buffer and stop short of the cursor. Inserts between the clock
// and the cursor must still reach the buffer (every tick at or below the
// buffer's tick does, not only while the buffer holds entries), or they
// would sit behind the cursor and dispatch a rotation late.
func TestRunUntilBudgetTripThenCancelHead(t *testing.T) {
	e := NewEngine()
	var fires []Time
	rec := func() { fires = append(fires, e.Now()) }
	e.At(100, rec)
	head := e.After(5*Microsecond, func() { t.Error("cancelled timer fired") })
	e.At(50*Microsecond, rec)
	e.SetBudget(1)
	if err := e.RunUntil(10 * Microsecond); err == nil {
		t.Fatal("RunUntil with a spent budget and an event pending returned nil")
	}
	head.Stop()
	e.SetBudget(0)
	if err := e.RunUntil(1100); err != nil {
		t.Fatal(err)
	}
	if err := e.wheel.check(e.Now()); err != nil {
		t.Fatal(err)
	}
	e.At(2000, rec)
	if err := e.RunUntil(2100); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 2 {
		t.Fatalf("RunUntil(2100) dispatched %v, want [100 2000]", fires)
	}
	if err := e.RunUntil(100 * Microsecond); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 2000, 50000}
	if fmt.Sprint(fires) != fmt.Sprint(want) {
		t.Fatalf("dispatch times = %v, want %v", fires, want)
	}
}

// RunUntil reports a spent budget only while a live event <= t is pending:
// an empty window, or one whose only events lie after t or were cancelled,
// returns nil and advances the clock.
func TestRunUntilBudgetOnlyWithEventDue(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.SetBudget(1)
	if err := e.RunUntil(100); err != nil {
		t.Fatalf("the one budgeted event tripped: %v", err)
	}
	if err := e.RunUntil(1000); err != nil {
		t.Fatalf("empty window with a spent budget tripped: %v", err)
	}
	e.At(5000, func() {})
	e.After(1000, func() {}).Stop() // due at 2000
	if err := e.RunUntil(3000); err != nil {
		t.Fatalf("window holding only a cancelled and a later event tripped: %v", err)
	}
	if e.Now() != 3000 {
		t.Fatalf("clock at %v, want 3000", e.Now())
	}
	if err := e.RunUntil(6000); err == nil {
		t.Fatal("window with a live event due did not trip")
	}
	if e.Now() != 3000 {
		t.Fatalf("clock at %v after the trip, want 3000", e.Now())
	}
}
