package sim

import (
	"math/bits"
	"slices"
)

// The event queue is a hierarchical timer wheel: wheelLevels levels of
// wheelSlots slots each, with a 2^tickBits-ns tick at level 0. Level L
// buckets spans of 64^L ticks. Ten levels of 6 bits cover the 55-bit tick
// range of a non-negative Time, so every timestamp has a level, and a far
// entry cascades down like any other. Insert and cancel are O(1); dispatch
// pays an occasional bitmap scan plus amortized cascading, instead of the
// O(log n) pointer-chasing comparisons of the old global container/heap.
//
// Determinism (DESIGN.md §9, §15): dispatch order is exactly (time,
// insertion seq). All pending entries for one level-0 tick live in one
// slot by the time that tick is next to run (anything earlier has been
// cascaded down), and extraction sorts them by (at, seq), so same-time
// ties fire in scheduling order no matter how they arrived — direct
// insert or cascade.
//
// Dispatch is head then take: head(limit) fills the buffer with the next
// tick, never moving the cursor past limit, and returns its first live
// entry if that is at or before limit; take consumes it. RunUntil(t)
// therefore finds and dispatches the next event with one bounded fill and
// no separate look-ahead. Every wheel entry is at a tick after bufTick,
// the tick the buffer was last filled for, and an insert at or below
// bufTick goes into the buffer at its sorted position instead; its fresh
// sequence number puts it after every same-time entry already there.
// The cursor is at or below the engine clock except while its tick is
// bufTick: a watchdog trip returns with the buffer's head undispatched and
// the cursor up to that head's tick ahead of the clock, and inserts in
// between land in the buffer, ahead of everything in the wheel.
const (
	tickBits    = 8 // 256 ns per level-0 tick
	levelBits   = 6
	wheelSlots  = 1 << levelBits
	slotMask    = wheelSlots - 1
	wheelLevels = 10
)

// timer states. A cancelled (tmDead) entry stays linked wherever it is and
// is reclaimed lazily when its slot is next touched, which keeps Stop O(1).
const (
	tmFree     uint8 = iota // in the pool
	tmWheel                 // linked in a wheel slot
	tmBuffered              // extracted into the dispatch buffer
	tmRunning               // its callback is executing
	tmDead                  // cancelled; awaiting lazy reclamation
)

// timer is one scheduled callback. Timers are pooled: after dispatch or
// cancellation they return to a free list, so the steady-state hot path
// allocates nothing. gen is bumped on every recycle so stale Timer handles
// can never touch a reused entry.
type timer struct {
	at     Time
	seq    uint64
	fn     func()
	period Time // >0: periodic; re-armed after each dispatch
	gen    uint32
	state  uint8
	next   *timer // slot chain / free list link
}

// before reports whether a orders before b in dispatch order.
func (a *timer) before(b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wheel is the engine's event queue. The zero value is ready to use.
type wheel struct {
	cur     Time                // dispatch cursor; advances only in fillBuf, never past its limit
	occ     [wheelLevels]uint64 // per-level slot occupancy bitmaps
	levels  uint16              // bitmask of levels with any occupied slot
	slots   [wheelLevels][wheelSlots]*timer
	buf     []*timer // dispatch buffer for bufTick, (at, seq)-sorted
	bufi    int      // next index into buf
	bufTick int64    // tick the buffer was last filled for; no wheel entry is at or below it
	free    *timer   // pool free list
	pending int      // live entries not yet dispatched

	// cascades counts live entries moved to a lower level, mirrored into
	// EngineProfile when profiling is armed (cheap enough to count
	// unconditionally).
	cascades uint64
}

// timerSlab is how many timer entries the pool grows by at once: a fresh
// engine's warm-up pays one allocation per slab, not one per entry.
const timerSlab = 64

// get returns a pooled timer, growing the pool a slab at a time when it is
// empty.
func (w *wheel) get() *timer {
	tm := w.free
	if tm == nil {
		slab := make([]timer, timerSlab)
		for i := 1; i < len(slab)-1; i++ {
			slab[i].next = &slab[i+1]
		}
		w.free = &slab[1]
		return &slab[0]
	}
	w.free = tm.next
	tm.next = nil
	return tm
}

// recycle returns an unlinked entry to the pool, invalidating handles.
func (w *wheel) recycle(tm *timer) {
	tm.gen++
	tm.fn = nil
	tm.period = 0
	tm.state = tmFree
	tm.next = w.free
	w.free = tm
}

// tickOf converts a timestamp to its level-0 tick number.
func tickOf(t Time) int64 { return int64(t) >> tickBits }

// levelOf returns the wheel level for an event delta ticks ahead of the
// cursor. Every non-negative delta between two Times has one below
// wheelLevels.
func levelOf(delta int64) int {
	if delta < wheelSlots {
		return 0
	}
	return (bits.Len64(uint64(delta)) - 1) / levelBits
}

// insert links a live entry into the dispatch buffer when its tick is at
// or below bufTick, and otherwise into the wheel.
// tm.at must be >= the engine clock. A tick below bufTick occurs only after
// a watchdog trip left the cursor ahead of the clock; such an entry still
// precedes everything in the wheel, so its sorted buffer position is its
// dispatch position.
func (w *wheel) insert(tm *timer) {
	w.pending++
	if tickOf(tm.at) <= w.bufTick {
		w.bufInsert(tm)
		return
	}
	w.place(tm)
}

// bufInsert splices an entry into the pending part of the dispatch buffer
// at its (at, seq) position. A fresh entry's seq is the largest assigned
// so far, so it only has to move past later-timestamp entries; an armed
// lane key keeps its older seq and may move past same-time entries too.
// A consumed buffer is rewound first, so a same-tick chain reuses the
// buffer's front instead of growing it.
func (w *wheel) bufInsert(tm *timer) {
	if w.bufi == len(w.buf) {
		w.buf, w.bufi = w.buf[:0], 0
	}
	tm.state = tmBuffered
	w.buf = append(w.buf, tm)
	i := len(w.buf) - 1
	for i > w.bufi && tm.before(w.buf[i-1]) {
		w.buf[i] = w.buf[i-1]
		i--
	}
	w.buf[i] = tm
}

// place links tm by its tick delta from the cursor without touching the
// live count (shared by insert and cascading).
func (w *wheel) place(tm *timer) {
	lvl := levelOf(tickOf(tm.at) - tickOf(w.cur))
	idx := int(tm.at>>(tickBits+levelBits*lvl)) & slotMask
	tm.state = tmWheel
	tm.next = w.slots[lvl][idx]
	w.slots[lvl][idx] = tm
	w.occ[lvl] |= 1 << idx
	w.levels |= 1 << lvl
}

// nextLevel0 returns the tick distance (0..63) of the first occupied
// level-0 slot at or after the cursor. Call only when occ[0] != 0.
func (w *wheel) nextLevel0() int {
	idx := int(tickOf(w.cur)) & slotMask
	return bits.TrailingZeros64(bits.RotateLeft64(w.occ[0], -idx))
}

// nextBase returns the start time of the first occupied slot strictly
// after the cursor's slot at level lvl (>= 1). A set bit on the cursor's
// own slot means the next rotation: fillBuf's grouped cascade guarantees
// live entries never linger in the current higher-level slot. The result
// is the start of a slot some entry occupies, at or before that entry's
// time, so the shift cannot overflow. Call only when occ[lvl] != 0.
func (w *wheel) nextBase(lvl int) Time {
	shift := uint(tickBits + levelBits*lvl)
	curAbs := uint64(w.cur) >> shift
	idx := int(curAbs) & slotMask
	rot := bits.RotateLeft64(w.occ[lvl], -idx)
	d := bits.TrailingZeros64(rot &^ 1)
	if d == 64 {
		d = wheelSlots // only the cursor slot is set: one full rotation away
	}
	return Time((curAbs + uint64(d)) << shift)
}

// unlink detaches and returns the chain of the given slot.
func (w *wheel) unlink(lvl, idx int) *timer {
	head := w.slots[lvl][idx]
	w.slots[lvl][idx] = nil
	w.occ[lvl] &^= 1 << idx
	if w.occ[lvl] == 0 {
		w.levels &^= 1 << lvl
	}
	return head
}

// cascade redistributes one higher-level slot: the cursor advances to the
// slot's base time (never backwards) and every live entry re-buckets at a
// strictly lower level (its remaining delta is less than one slot span).
// Dead entries are reclaimed here — cancellation's deferred cost.
func (w *wheel) cascade(lvl int, base Time) {
	if base > w.cur {
		w.cur = base
	}
	idx := int(base>>(tickBits+levelBits*lvl)) & slotMask
	chain := w.unlink(lvl, idx)
	for chain != nil {
		tm := chain
		chain = chain.next
		if tm.state == tmDead {
			w.recycle(tm)
			continue
		}
		w.cascades++
		w.place(tm)
	}
}

// fillBuf locates the earliest pending tick at or before limit, advances
// the cursor to it, and extracts its live entries into the dispatch buffer
// in (at, seq) order. It reports false when no entry's tick starts at or
// before limit. The fill is bounded: it cascades no slot whose base is
// after limit and extracts no tick that starts after limit, so the cursor
// never passes limit. A false return therefore leaves the cursor at or
// below limit, where RunUntil's clock advance meets it. When the scan instead drains the
// wheel — every remaining slot held only cancelled entries — the cursor is
// restored to its entry value: no dispatch or clock advance may follow
// (Run, Step), and a cursor left ahead of the clock would put later
// inserts (clock <= t < cursor) at a negative tick delta, behind the
// cursor, where the rotated occupancy scan reads them as nearly a full
// rotation in the future and dispatch order breaks.
func (w *wheel) fillBuf(limit Time) bool {
	cur0 := w.cur
	for {
		// Candidate next tick: slot base times, exact slot at level 0.
		var c0 Time
		c0ok := w.occ[0] != 0
		if c0ok {
			c0 = Time((tickOf(w.cur) + int64(w.nextLevel0())) << tickBits)
		}
		var bases [wheelLevels]Time
		var minBase Time
		haveHigher := false
		for mask := w.levels &^ 1; mask != 0; mask &= mask - 1 {
			lvl := bits.TrailingZeros16(mask)
			bases[lvl] = w.nextBase(lvl)
			if !haveHigher || bases[lvl] < minBase {
				minBase, haveHigher = bases[lvl], true
			}
		}
		if haveHigher && (!c0ok || minBase <= c0) {
			if minBase > limit {
				return false
			}
			// Higher slots at or before the level-0 candidate may hold
			// earlier entries; bring them down first so ties dispatch in
			// seq order. Every level whose slot starts at minBase must
			// cascade in this same pass, highest level first: once the
			// cursor advances to minBase, an equal-base slot at another
			// level would sit in that level's cursor position and read as
			// a full rotation away, trapping its entries.
			for mask := w.levels &^ 1; mask != 0; mask &= mask - 1 {
				lvl := bits.TrailingZeros16(mask)
				if bases[lvl] == minBase {
					w.cascade(lvl, minBase)
				}
			}
			continue
		}
		if !c0ok {
			w.cur = cur0 // cancel-only drain: no dispatch follows
			return false
		}
		if c0 > limit {
			return false
		}

		// Extract the level-0 slot: every pending entry of that tick.
		if c0 > w.cur {
			w.cur = c0
		}
		w.bufTick = tickOf(c0)
		chain := w.unlink(0, int(w.bufTick)&slotMask)
		for chain != nil {
			tm := chain
			chain = chain.next
			if tm.state == tmDead {
				w.recycle(tm)
				continue
			}
			tm.state = tmBuffered
			w.buf = append(w.buf, tm)
		}
		if len(w.buf) == 0 {
			continue // the slot held only cancelled entries
		}
		w.sortBuf()
		return true
	}
}

// sortBuf orders the freshly extracted buffer by (at, seq): insertion
// sort for the typical small tick, stdlib sort for bursts.
func (w *wheel) sortBuf() {
	buf := w.buf
	if len(buf) > 32 {
		slices.SortFunc(buf, func(a, b *timer) int {
			if a.before(b) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(buf); i++ {
		tm := buf[i]
		j := i - 1
		for j >= 0 && tm.before(buf[j]) {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = tm
	}
}

// head returns the earliest live pending entry if it is at or before
// limit, without consuming it, and nil otherwise. It reclaims cancelled
// entries at the front of the buffer and refills the buffer, bounded by
// limit, once it runs dry. The entry stays pending until take consumes it.
func (w *wheel) head(limit Time) *timer {
	for {
		for w.bufi < len(w.buf) {
			tm := w.buf[w.bufi]
			if tm.state != tmDead {
				if tm.at > limit {
					return nil
				}
				return tm
			}
			w.bufi++
			w.recycle(tm)
		}
		w.buf = w.buf[:0]
		w.bufi = 0
		if !w.fillBuf(limit) {
			return nil
		}
	}
}

// take consumes the entry the last head call returned: it leaves the
// buffer and stops counting as pending.
func (w *wheel) take() {
	w.bufi++
	w.pending--
}
