package bus

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

func TestTransferTime(t *testing.T) {
	// 12800 bytes at 12800 MB/s = 1 µs.
	if got := TransferTime(12800); got != sim.Microsecond {
		t.Fatalf("TransferTime(12800B) = %v, want 1us", got)
	}
	if TransferTime(0) != 0 {
		t.Fatal("zero bytes should take no time")
	}
	if TransferTime(-5) != 0 {
		t.Fatal("negative bytes should take no time")
	}
	if TransferTime(1) < 1 {
		t.Fatal("sub-ns transfer should round up to 1ns")
	}
	// 4KB page: 4096/12.8e9 s = 320ns.
	if got := TransferTime(4096); got != 320 {
		t.Fatalf("4KB transfer = %v, want 320ns", got)
	}
}

func TestChannelImmediateGrant(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChannel(eng, 0)
	var started sim.Time = -1
	c.Acquire(PriIO, 100, func(start sim.Time) { started = start })
	eng.Run()
	if started != 0 {
		t.Fatalf("idle channel grant at %v, want 0", started)
	}
}

func TestChannelSerialization(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChannel(eng, 0)
	var starts []sim.Time
	for i := 0; i < 3; i++ {
		c.Acquire(PriMem, 100, func(start sim.Time) { starts = append(starts, start) })
	}
	eng.Run()
	want := []sim.Time{0, 100, 200}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
}

func TestChannelPriority(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChannel(eng, 0)
	var order []string
	// Occupy the channel first so both waiters queue.
	c.Acquire(PriIO, 50, func(sim.Time) { order = append(order, "first") })
	c.Acquire(PriIO, 50, func(sim.Time) { order = append(order, "io") })
	c.Acquire(PriMem, 50, func(sim.Time) { order = append(order, "mem") })
	eng.Run()
	if len(order) != 3 || order[1] != "mem" || order[2] != "io" {
		t.Fatalf("priority order = %v, want mem before io", order)
	}
}

func TestChannelContentionDelaysIO(t *testing.T) {
	// A stream of DRAM traffic should push NVDIMM transfer wait times up.
	eng := sim.NewEngine()
	c := NewChannel(eng, 0)
	// Saturate with memory traffic: 20 grants of 100ns each.
	for i := 0; i < 20; i++ {
		c.Acquire(PriMem, 100, func(sim.Time) {})
	}
	var ioStart sim.Time = -1
	c.Acquire(PriIO, 320, func(start sim.Time) { ioStart = start })
	eng.Run()
	if ioStart != 2000 {
		t.Fatalf("IO start = %v, want 2000 (after all mem traffic)", ioStart)
	}
	if c.MeanWaitUS(PriIO) <= c.MeanWaitUS(PriMem) {
		t.Fatalf("IO wait (%v) should exceed mem wait (%v)",
			c.MeanWaitUS(PriIO), c.MeanWaitUS(PriMem))
	}
}

func TestChannelStats(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChannel(eng, 3)
	c.Acquire(PriMem, 100, func(sim.Time) {})
	c.Acquire(PriIO, 200, func(sim.Time) {})
	eng.Run()
	if c.Grants(PriMem) != 1 || c.Grants(PriIO) != 1 {
		t.Fatalf("grants = %d/%d", c.Grants(PriMem), c.Grants(PriIO))
	}
	if c.busyTime != 300 {
		t.Fatalf("busy time = %v", c.busyTime)
	}
	if u := c.Utilization(); u != 1 {
		t.Fatalf("utilization = %v, want 1 (fully busy)", u)
	}
}

func TestChannelNegativeHoldClamped(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChannel(eng, 0)
	ran := false
	c.Acquire(PriIO, -10, func(sim.Time) { ran = true })
	eng.Run()
	if !ran {
		t.Fatal("negative-hold grant never ran")
	}
	if c.busy() {
		t.Fatal("channel stuck busy")
	}
}

func TestChannelQueueLen(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChannel(eng, 0)
	c.Acquire(PriMem, 100, func(sim.Time) {})
	c.Acquire(PriIO, 100, func(sim.Time) {})
	c.Acquire(PriIO, 100, func(sim.Time) {})
	if n := c.queues[PriIO].Len(); n != 2 {
		t.Fatalf("queue len = %d, want 2", n)
	}
	eng.Run()
	if c.queues[PriIO].Len() != 0 {
		t.Fatal("queue not drained")
	}
}

// TestGrantRingOrderAcrossGrowthAndWrap queues more than a ring's
// initial 16 slots of each class, interleaved, in three waves timed so
// that both rings wrap and then grow. Grants must stay strictly by
// priority and FIFO within a class — the order the old slice shift
// guaranteed — and the counters must match the hand-computed schedule.
// Every hold is 10 ns. (The ring's slot layout itself is checked after
// every operation by sim's TestRingMatchesSlice.)
//
//	t=0    blocker io granted (io ring head 1); queue m0,i0 … m11,i11
//	t=75   mem ring holds m7..m11 at head 7: m16..m22 wrap, m23 grows it;
//	       io ring holds i0..i11 at head 1: i15 wraps, i16 grows it;
//	       queue m12,i12 … m23,i23
//	t=355  mem ring empty, io ring holds i11..i23; queue m24,i24 …
//	       m31,i31: the mem waiters overtake the queued io
func TestGrantRingOrderAcrossGrowthAndWrap(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChannel(eng, 0)
	const hold = 10
	type rec struct {
		name  string
		start sim.Time
	}
	var got []rec
	acquire := func(pri Priority, name string) {
		c.Acquire(pri, hold, func(start sim.Time) { got = append(got, rec{name, start}) })
	}
	wave := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acquire(PriMem, fmt.Sprintf("m%d", i))
			acquire(PriIO, fmt.Sprintf("i%d", i))
		}
	}
	acquire(PriIO, "blocker")
	wave(0, 12)
	eng.At(75, func() {
		wave(12, 24)
		if m, i := c.queues[PriMem].Len(), c.queues[PriIO].Len(); m != 17 || i != 24 {
			t.Errorf("t=75 queue lens = %d/%d, want 17/24", m, i)
		}
	})
	eng.At(355, func() {
		wave(24, 32)
		if m, i := c.queues[PriMem].Len(), c.queues[PriIO].Len(); m != 8 || i != 21 {
			t.Errorf("t=355 queue lens = %d/%d, want 8/21", m, i)
		}
	})
	eng.Run()

	// Expected grant order: one grant every 10 ns from t=0.
	var want []string
	add := func(prefix string, lo, hi int) {
		for i := lo; i < hi; i++ {
			want = append(want, fmt.Sprintf("%s%d", prefix, i))
		}
	}
	want = append(want, "blocker")
	add("m", 0, 24)  // t=10..240: every mem waiter of waves 1 and 2
	add("i", 0, 11)  // t=250..350: io runs while mem is empty
	add("m", 24, 32) // t=360..430: wave 3 mem overtakes the queued io
	add("i", 11, 32) // t=440..640
	if len(got) != len(want) {
		t.Fatalf("granted %d waiters, want %d", len(got), len(want))
	}
	for k, r := range got {
		if r.name != want[k] || r.start != sim.Time(k*hold) {
			t.Fatalf("grant %d = %s at %v, want %s at %v", k, r.name, r.start, want[k], sim.Time(k*hold))
		}
	}
	if m, i := c.queues[PriMem].Len(), c.queues[PriIO].Len(); m != 0 || i != 0 {
		t.Fatalf("queues not drained: %d/%d", m, i)
	}
	if c.Grants(PriMem) != 32 || c.Grants(PriIO) != 33 {
		t.Fatalf("grants = %d/%d, want 32/33", c.Grants(PriMem), c.Grants(PriIO))
	}
	// Hand-summed waits: mem 780+1320+320 = 2420 ns over 32 grants;
	// io 0+3300+440+5160+2000 = 10900 ns over 33 grants.
	if got, want := c.MeanWaitUS(PriMem), 2.420/32; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mem mean wait = %v µs, want %v", got, want)
	}
	if got, want := c.MeanWaitUS(PriIO), 10.900/33; math.Abs(got-want) > 1e-12 {
		t.Fatalf("io mean wait = %v µs, want %v", got, want)
	}
}

func TestInterconnect(t *testing.T) {
	eng := sim.NewEngine()
	ic := NewInterconnect(eng, 4)
	if ic.NumChannels() != 4 {
		t.Fatalf("channels = %d", ic.NumChannels())
	}
	seen := map[*Channel]int{}
	for i := 0; i < 4; i++ {
		c := ic.Channel(i)
		if c != ic.Channel(i) {
			t.Fatalf("channel %d is not stable across calls", i)
		}
		if j, dup := seen[c]; dup {
			t.Fatalf("channels %d and %d are the same channel", j, i)
		}
		seen[c] = i
	}
}
