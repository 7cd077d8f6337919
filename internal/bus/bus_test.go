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
	if c.busy {
		t.Fatal("channel stuck busy")
	}
}

func TestChannelQueueLen(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChannel(eng, 0)
	c.Acquire(PriMem, 100, func(sim.Time) {})
	c.Acquire(PriIO, 100, func(sim.Time) {})
	c.Acquire(PriIO, 100, func(sim.Time) {})
	if c.queues[PriIO].n != 2 {
		t.Fatalf("queue len = %d, want 2", c.queues[PriIO].n)
	}
	eng.Run()
	if c.queues[PriIO].n != 0 {
		t.Fatal("queue not drained")
	}
}

// TestGrantRingOrderAcrossGrowthAndWrap queues more than the ring's
// initial 8 slots of each class, interleaved, in three waves timed so that
// both rings grow and both wrap. Grants must stay strictly by priority and
// FIFO within a class — the order the old slice shift guaranteed — and the
// counters must match the hand-computed schedule. Every hold is 10 ns.
//
//	t=0    blocker io granted; queue m0,i0 … m5,i5
//	t=35   mem ring holds m3..m5 at head 3: m6..m10 wrap, m11 grows it;
//	       queue m6,i6 … m11,i11 (the io ring grows at i8)
//	t=215  io ring holds i9..i11 at head 9: i12..i19 wrap (no growth);
//	       queue m12,i12 … m19,i19 (the mem ring, empty at head 9, wraps)
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
	wave(0, 6)
	eng.At(35, func() {
		wave(6, 12)
		if c.queues[PriMem].n != 9 || c.queues[PriIO].n != 12 {
			t.Errorf("t=35 queue lens = %d/%d, want 9/12", c.queues[PriMem].n, c.queues[PriIO].n)
		}
	})
	eng.At(215, func() {
		wave(12, 20)
		if c.queues[PriMem].n != 8 || c.queues[PriIO].n != 11 {
			t.Errorf("t=215 queue lens = %d/%d, want 8/11", c.queues[PriMem].n, c.queues[PriIO].n)
		}
		for p := range c.queues {
			if q := &c.queues[p]; len(q.buf) != 16 || q.head+q.n <= len(q.buf) {
				t.Errorf("class %d ring: %d slots, head %d, %d queued; want 16 slots, wrapped", p, len(q.buf), q.head, q.n)
			}
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
	add("m", 0, 12)  // t=10..120: every mem waiter of waves 1 and 2
	add("i", 0, 9)   // t=130..210: io runs while mem is empty
	add("m", 12, 20) // t=220..290: wave 3 mem overtakes the queued io
	add("i", 9, 20)  // t=300..400
	if len(got) != len(want) {
		t.Fatalf("granted %d waiters, want %d", len(got), len(want))
	}
	for k, r := range got {
		if r.name != want[k] || r.start != sim.Time(k*hold) {
			t.Fatalf("grant %d = %s at %v, want %s at %v", k, r.name, r.start, want[k], sim.Time(k*hold))
		}
	}
	if c.queues[PriMem].n != 0 || c.queues[PriIO].n != 0 {
		t.Fatalf("queues not drained: %d/%d", c.queues[PriMem].n, c.queues[PriIO].n)
	}
	if c.Grants(PriMem) != 20 || c.Grants(PriIO) != 21 {
		t.Fatalf("grants = %d/%d, want 20/21", c.Grants(PriMem), c.Grants(PriIO))
	}
	// Hand-summed waits: mem 60+150+360+320 = 890 ns over 20 grants;
	// io 0+930+495+825+1200 = 3450 ns over 21 grants.
	if got, want := c.MeanWaitUS(PriMem), 0.890/20; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mem mean wait = %v µs, want %v", got, want)
	}
	if got, want := c.MeanWaitUS(PriIO), 3.450/21; math.Abs(got-want) > 1e-12 {
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

func TestInterconnectMeanIOWait(t *testing.T) {
	eng := sim.NewEngine()
	ic := NewInterconnect(eng, 2)
	if ic.MeanIOWaitUS() != 0 {
		t.Fatal("no traffic should mean zero wait")
	}
	ch := ic.Channel(0)
	ch.Acquire(PriMem, 1000, func(sim.Time) {})
	ch.Acquire(PriIO, 100, func(sim.Time) {})
	eng.Run()
	if ic.MeanIOWaitUS() != 1.0 {
		t.Fatalf("mean IO wait = %v us, want 1.0", ic.MeanIOWaitUS())
	}
}
