package sim

import (
	"strings"
	"testing"
)

// TestLaneKeysCountAsEvents checks every engine observable against what
// an engine dispatching each reserved key as a no-op event shows: keys
// count in Pending until passed and in Processed after; RunUntil passes
// keys at or before its end, including one reserved at that end time; a
// drain ends the clock at the last key; Step passes a key that comes
// first; and the profile counts only wheel events.
func TestLaneKeysCountAsEvents(t *testing.T) {
	e := NewEngine()
	e.EnableProfiling()
	l := e.NewLane()
	e.At(100, func() {
		l.Reserve(100) // same time, later seq: passes after this event
		if n := l.PopPassed(); n != 1 || l.Len() != 1 {
			t.Errorf("inside the event at 100: %d keys passed, %d not; want the key at 50 passed, the one at 100 not", n, l.Len())
		}
	})
	l.Reserve(50)
	if e.Pending() != 2 || e.Processed() != 0 {
		t.Fatalf("before run: pending %d processed %d, want 2 and 0", e.Pending(), e.Processed())
	}
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != 3 || e.Pending() != 0 || l.PopPassed() != 1 {
		t.Fatalf("after RunUntil(100): processed %d pending %d; want 3 and 0, the key at 100 passed", e.Processed(), e.Pending())
	}
	l.Reserve(100) // at the clock after RunUntil: not passed yet
	l.Reserve(300)
	if l.Len() != 2 {
		t.Fatalf("a key reserved at the clock after RunUntil counted passed")
	}
	if !e.Step() || e.Now() != 100 || e.Processed() != 4 {
		t.Fatalf("Step over the key at 100: clock %v processed %d", e.Now(), e.Processed())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 300 || e.Processed() != 5 || e.Pending() != 0 || l.PopPassed() != 2 {
		t.Fatalf("after drain: clock %v processed %d pending %d; want 300, 5, 0", e.Now(), e.Processed(), e.Pending())
	}
	if e.Step() {
		t.Fatal("Step on a drained engine reported an event")
	}
	if p := e.Profile(); p.Events != 1 || p.Inserts != 1 || p.MaxDepth != 1 {
		t.Fatalf("profile %+v: want only the one wheel event", p)
	}
}

// TestLaneArmKeepsKey arms a reserved key after two later same-time
// events were scheduled: it must dispatch in its reserved place.
func TestLaneArmKeepsKey(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	var order []string
	e.At(500, func() { order = append(order, "a") })
	l.Reserve(500)
	e.At(500, func() { order = append(order, "c") })
	e.At(100, func() {
		l.Arm(func() { order = append(order, "b") })
	})
	e.Run()
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("dispatch order %q, want abc", got)
	}
	if e.Processed() != 4 {
		t.Fatalf("processed %d, want 4", e.Processed())
	}
}

// TestLaneBudgetTripsOnKey arms a budget that runs out on a reserved
// key: the trip must report the count and clock of that key, and the
// rerun must pick up at the next event.
func TestLaneBudgetTripsOnKey(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	ran := false
	e.At(100, func() {})
	l.Reserve(150)
	e.At(300, func() { ran = true })
	e.SetBudget(2)
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "2 events executed, clock at 150ns") {
		t.Fatalf("budget error %v, want a trip at 2 events, 150ns", err)
	}
	if ran || e.Now() != 150 {
		t.Fatalf("trip left clock %v, event at 300 ran %v", e.Now(), ran)
	}
	e.SetBudget(0)
	if err := e.RunUntil(1000); err != nil || !ran || e.Processed() != 3 {
		t.Fatalf("rerun: err %v, ran %v, processed %d", err, ran, e.Processed())
	}
}

// TestLaneRejectsOutOfOrderKeys pins the monotone contract.
func TestLaneRejectsOutOfOrderKeys(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	l.Reserve(200)
	defer func() {
		if recover() == nil {
			t.Fatal("a key before the lane's previous one was accepted")
		}
	}()
	l.Reserve(100)
}

// TestLaneSameTimeKeysPassInSeqOrder reserves keys either side of an
// event at the same time: inside the event, only the key reserved before
// it has passed.
func TestLaneSameTimeKeysPassInSeqOrder(t *testing.T) {
	e := NewEngine()
	l := e.NewLane()
	passed, left := -1, -1
	l.Reserve(100)
	e.At(100, func() { passed, left = l.PopPassed(), l.Len() })
	l.Reserve(100)
	e.Run()
	if passed != 1 || left != 1 {
		t.Fatalf("inside the event: %d keys passed, %d left; want 1 and 1", passed, left)
	}
}

// TestLaneBudgetTripMatchesEvents sweeps the budget across a schedule of
// events and lane keys (runs of several keys between events, some keys
// sharing an event's time) and compares every trip with an engine that
// dispatches each key as a no-op event: the error, clock and Processed
// must agree, whether the trip comes early or after many keys have passed
// unseen while the budget was still far.
func TestLaneBudgetTripMatchesEvents(t *testing.T) {
	type outcome struct {
		err1, err2 string
		now        Time
		processed  uint64
	}
	run := func(budget uint64, lazy bool) outcome {
		e := NewEngine()
		l := e.NewLane()
		key := func(at Time) {
			if lazy {
				l.Reserve(at)
			} else {
				e.At(at, func() {})
			}
		}
		for i := Time(0); i < 40; i++ {
			e.At(100*i, func() {})
			for k := Time(0); k < i%4; k++ {
				key(100*i + 30*k)
			}
		}
		errString := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		e.RunUntil(700) // keys pass unseen before the budget is armed
		e.SetBudget(budget)
		var o outcome
		o.err1 = errString(e.RunUntil(2500))
		o.err2 = errString(e.Run())
		o.now, o.processed = e.Now(), e.Processed()
		return o
	}
	for budget := uint64(1); budget <= 70; budget++ {
		if lazy, eager := run(budget, true), run(budget, false); lazy != eager {
			t.Fatalf("budget %d: lanes %+v, events %+v", budget, lazy, eager)
		}
	}
}
