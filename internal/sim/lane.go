package sim

// Lane holds event keys an owner has reserved without scheduling them:
// events whose callback would do no work when their time comes, such as
// a bus release with no grant queued. Reserve takes the key (at, seq)
// exactly as At would, but inserts no timer. Once the engine's position
// passes a key, the key counts as a processed event that did nothing;
// if the owner learns before then that the event must run after all,
// Arm schedules the callback under the key it reserved, so it dispatches
// exactly where the event would have (DESIGN.md §15).
//
// A lane's keys must be reserved in time order (their seqs already
// increase), so the passed keys are always a prefix of the lane. The
// engine knows its lanes, which keeps Processed, Pending, Run's final
// clock, Step and the SetBudget watchdog exact as if every passed key had
// been dispatched. Like the Engine, a Lane is not safe for concurrent
// use.
type Lane struct {
	eng    *Engine
	keys   Ring[laneKey] // reserved keys not yet seen passed, oldest first
	last   Time          // time of the latest reserved key
	passed int           // keys seen passed and not yet reported by PopPassed
}

// laneKey is a reserved event key.
type laneKey struct {
	at  Time
	seq uint64
}

// before reports whether a orders before b in dispatch order.
func (a laneKey) before(b laneKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// NewLane returns an empty lane on the engine.
func (e *Engine) NewLane() *Lane {
	l := &Lane{eng: e}
	e.lanes = append(e.lanes, l)
	return l
}

// Reserve takes the next sequence number for an event at absolute time t
// (past times clamp to now) without scheduling anything. It panics if t
// is before the lane's previous key: a lane is monotone.
func (l *Lane) Reserve(t Time) {
	e := l.eng
	if t < e.now {
		t = e.now
	}
	if t < l.last {
		panic("sim: lane keys must be reserved in time order")
	}
	l.last = t
	e.seq++
	l.keys.Push(laneKey{t, e.seq})
	e.laneKeys++
}

// PopPassed returns how many of the lane's keys the engine has passed
// since the last call.
func (l *Lane) PopPassed() int {
	l.settle()
	n := l.passed
	l.passed = 0
	return n
}

// Len returns the number of reserved keys the engine has not passed yet.
func (l *Lane) Len() int {
	l.settle()
	return l.keys.Len()
}

// Arm schedules fn under the oldest key the engine has not passed yet,
// which then leaves the lane: it dispatches as an ordinary event with its
// original (at, seq). The lane must hold such a key.
func (l *Lane) Arm(fn func()) {
	if l.Len() == 0 {
		panic("sim: Arm on a lane with no unpassed key")
	}
	k := l.keys.Pop()
	l.eng.laneKeys--
	tm := l.eng.wheel.get()
	tm.fn = fn
	tm.at, tm.seq = k.at, k.seq
	l.eng.insert(tm)
}

// settle moves the keys at or before the engine's position off the lane,
// counting each as processed.
func (l *Lane) settle() {
	e := l.eng
	for l.keys.Len() > 0 {
		if k := l.keys.Peek(); k.at > e.now || k.at == e.now && k.seq > e.posSeq {
			return
		}
		l.keys.Pop()
		l.passed++
		e.processed++
		e.laneKeys--
	}
}

// pass moves the engine's position to the lane's oldest key, counting it
// as one processed event: the elided event's turn in Step and in a
// budgeted run. The key must be the earliest one pending (Engine.next).
func (l *Lane) pass() {
	k := l.keys.Pop()
	l.passed++
	e := l.eng
	e.processed++
	e.laneKeys--
	e.now, e.posSeq = k.at, k.seq
}

// laneDue reports whether a lane holds an unpassed key at or before t.
func (e *Engine) laneDue(t Time) bool {
	for _, l := range e.lanes {
		if l.Len() > 0 && l.keys.Peek().at <= t {
			return true
		}
	}
	return false
}

// drainLanes passes every key left in the lanes after the wheel has
// drained: the clock moves to the latest key if that is ahead of it.
func (e *Engine) drainLanes() {
	for _, l := range e.lanes {
		for l.keys.Len() > 0 {
			k := l.keys.Pop()
			l.passed++
			e.processed++
			e.laneKeys--
			if k.at > e.now {
				e.now = k.at
			}
		}
	}
	e.posSeq = e.seq
}
