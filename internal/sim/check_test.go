package sim

import (
	"fmt"
	"math/bits"
)

// check verifies the wheel's own invariants against the engine clock now
// and reports the first violation:
//
//   - occ and levels agree with the slot chains;
//   - the layout: the top level reaches the last tick of Time, so place
//     finds a level for any entry, and the levels mask has a bit for each;
//   - every entry sits where place would put it: level 0 within one
//     rotation at or after the cursor's tick, a higher level in a slot that
//     starts after the cursor's slot and at most one rotation ahead;
//   - nextBase at each occupied higher level is the start of its earliest
//     occupied slot, which is at or before an entry's time, so its shift
//     never overflows;
//   - every wheel entry is at a tick after bufTick, and every buffered
//     entry at or below it, in (at, seq) order;
//   - pending equals the live entries in wheel and buffer;
//   - the cursor is at or below the clock unless its tick is bufTick (the
//     watchdog-trip exit, whose inserts below the cursor go to the buffer).
//
// Cancelled entries are checked for placement too: the cursor must never
// pass an occupied slot, live or not.
func (w *wheel) check(now Time) error {
	if top := levelOf(tickOf(maxTime)); top >= wheelLevels {
		return fmt.Errorf("the last tick of Time needs level %d, the wheel has %d", top, wheelLevels)
	}
	if width := bits.OnesCount64(uint64(w.levels | ^w.levels)); width < wheelLevels {
		return fmt.Errorf("%d levels do not fit the %d-bit levels mask", wheelLevels, width)
	}
	live := 0
	var levels uint16
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if w.occ[lvl] != 0 {
			levels |= 1 << lvl
		}
		shift := uint(tickBits + levelBits*lvl)
		first := maxTime // start of the level's earliest occupied slot
		for idx := 0; idx < wheelSlots; idx++ {
			head := w.slots[lvl][idx]
			if (head != nil) != (w.occ[lvl]&(1<<idx) != 0) {
				return fmt.Errorf("level %d slot %d: chain present %v, occupancy bit %v",
					lvl, idx, head != nil, w.occ[lvl]&(1<<idx) != 0)
			}
			for tm := head; tm != nil; tm = tm.next {
				switch tm.state {
				case tmWheel:
					live++
				case tmDead:
				default:
					return fmt.Errorf("level %d slot %d: entry at %v in state %d", lvl, idx, tm.at, tm.state)
				}
				if got := int(tm.at>>shift) & slotMask; got != idx {
					return fmt.Errorf("level %d: entry at %v linked in slot %d, belongs in %d", lvl, tm.at, idx, got)
				}
				if tickOf(tm.at) <= w.bufTick {
					return fmt.Errorf("level %d: entry at %v (tick %d) not after bufTick %d", lvl, tm.at, tickOf(tm.at), w.bufTick)
				}
				if lvl == 0 {
					if d := tickOf(tm.at) - tickOf(w.cur); d < 0 || d >= wheelSlots {
						return fmt.Errorf("level 0: entry at %v is %d ticks from cursor %v", tm.at, d, w.cur)
					}
				} else if d := int64(tm.at>>shift) - int64(w.cur>>shift); d < 1 || d > wheelSlots {
					return fmt.Errorf("level %d: entry at %v is %d slots from cursor %v", lvl, tm.at, d, w.cur)
				}
				if base := tm.at >> shift << shift; base < first {
					first = base
				}
			}
		}
		if lvl > 0 && w.occ[lvl] != 0 {
			if got := w.nextBase(lvl); got != first {
				return fmt.Errorf("level %d: nextBase %v, earliest occupied slot starts at %v", lvl, got, first)
			}
		}
	}
	if levels != w.levels {
		return fmt.Errorf("levels mask %010b, occupancy says %010b", w.levels, levels)
	}
	if w.bufi > len(w.buf) {
		return fmt.Errorf("buffer index %d past length %d", w.bufi, len(w.buf))
	}
	for i := w.bufi; i < len(w.buf); i++ {
		tm := w.buf[i]
		switch tm.state {
		case tmBuffered:
			live++
		case tmDead:
		default:
			return fmt.Errorf("buffered entry at %v in state %d", tm.at, tm.state)
		}
		if tickOf(tm.at) > w.bufTick {
			return fmt.Errorf("buffered entry at %v (tick %d) after bufTick %d", tm.at, tickOf(tm.at), w.bufTick)
		}
		if i > w.bufi && !w.buf[i-1].before(tm) {
			return fmt.Errorf("buffer out of (at, seq) order at index %d", i)
		}
	}
	if live != w.pending {
		return fmt.Errorf("pending %d, live entries %d", w.pending, live)
	}
	if w.cur > now && tickOf(w.cur) != w.bufTick {
		return fmt.Errorf("cursor %v ahead of clock %v outside bufTick %d", w.cur, now, w.bufTick)
	}
	return nil
}
