package flash

import (
	"testing"

	"repro/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumChannels = 2
	cfg.ChipsPerChannel = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.NumChannels = 0
	if bad.Validate() == nil {
		t.Fatal("zero channels accepted")
	}
	bad = DefaultConfig()
	bad.PagesPerBlock = 0
	if bad.Validate() == nil {
		t.Fatal("zero pages per block accepted")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New did not panic on invalid config")
		}
	}()
	New(sim.NewEngine(), Config{})
}

func TestLocateStriping(t *testing.T) {
	a := New(sim.NewEngine(), smallConfig())
	// PPN 0,1 → channels 0,1; PPN 2 wraps to channel 0 chip 1.
	ch, cp := a.Locate(0)
	if ch != 0 || cp != 0 {
		t.Fatalf("Locate(0) = %d,%d", ch, cp)
	}
	ch, cp = a.Locate(1)
	if ch != 1 || cp != 0 {
		t.Fatalf("Locate(1) = %d,%d", ch, cp)
	}
	ch, cp = a.Locate(2)
	if ch != 0 || cp != 1 {
		t.Fatalf("Locate(2) = %d,%d", ch, cp)
	}
	ch, cp = a.Locate(4)
	if ch != 0 || cp != 0 {
		t.Fatalf("Locate(4) = %d,%d", ch, cp)
	}
}

func TestReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, smallConfig())
	var doneAt sim.Time = -1
	a.ReadPage(0, func() { doneAt = eng.Now() })
	eng.Run()
	want := readLatency + channelXfer
	if doneAt != want {
		t.Fatalf("read finished at %v, want %v", doneAt, want)
	}
}

func TestWriteLatency(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, smallConfig())
	var doneAt sim.Time = -1
	a.WritePage(0, func() { doneAt = eng.Now() })
	eng.Run()
	want := channelXfer + writeLatency
	if doneAt != want {
		t.Fatalf("write finished at %v, want %v", doneAt, want)
	}
}

func TestEraseLatency(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, smallConfig())
	var doneAt sim.Time = -1
	a.EraseBlock(0, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != eraseLatency {
		t.Fatalf("erase finished at %v, want %v", doneAt, eraseLatency)
	}
}

func TestChannelParallelism(t *testing.T) {
	// Writes to different channels overlap fully; writes to the same chip
	// serialize.
	run := func(ppns []int64) sim.Time {
		eng := sim.NewEngine()
		a := New(eng, smallConfig())
		for _, p := range ppns {
			a.WritePage(p, nil)
		}
		eng.Run()
		last := sim.Time(0)
		for i := range a.chs {
			for j := range a.chs[i].chips {
				if a.chs[i].chips[j].busyUntil > last {
					last = a.chs[i].chips[j].busyUntil
				}
			}
		}
		return last
	}
	parallel := run([]int64{0, 1})    // channels 0 and 1
	serial := run([]int64{0, 4})      // both channel 0, chip 0
	interleaved := run([]int64{0, 2}) // channel 0, chips 0 and 1

	if parallel >= serial {
		t.Fatalf("cross-channel (%v) should beat same-chip (%v)", parallel, serial)
	}
	// Same channel different chips: transfers serialize, programs overlap.
	if interleaved >= serial {
		t.Fatalf("same-channel cross-chip (%v) should beat same-chip (%v)", interleaved, serial)
	}
	if interleaved <= parallel {
		t.Fatalf("same-channel cross-chip (%v) should trail cross-channel (%v)", interleaved, parallel)
	}
}

func TestChipSerialization(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, smallConfig())
	var first, second sim.Time
	a.WritePage(0, func() { first = eng.Now() })
	a.WritePage(4, func() { second = eng.Now() }) // same chip
	eng.Run()
	if second <= first {
		t.Fatalf("same-chip writes overlapped: %v then %v", first, second)
	}
	wantSecond := 2 * (channelXfer + writeLatency)
	if second != wantSecond {
		t.Fatalf("second write at %v, want %v", second, wantSecond)
	}
}

func TestReadBehindWrite(t *testing.T) {
	// A read to a chip that is programming must wait for the program.
	eng := sim.NewEngine()
	a := New(eng, smallConfig())
	a.WritePage(0, nil)
	var readDone sim.Time
	a.ReadPage(0, func() { readDone = eng.Now() })
	eng.Run()
	progEnd := channelXfer + writeLatency
	want := progEnd + readLatency + channelXfer
	if readDone != want {
		t.Fatalf("read behind write finished at %v, want %v", readDone, want)
	}
}

func TestOpCounts(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, smallConfig())
	var r, w, e int
	a.ReadPage(0, func() { r++ })
	a.ReadPage(1, func() { r++ })
	a.WritePage(2, func() { w++ })
	a.EraseBlock(3, func() { e++ })
	eng.Run()
	if r != 2 || w != 1 || e != 1 {
		t.Fatalf("op completions = %d/%d/%d, want 2/1/1", r, w, e)
	}
}

func TestChannelUtilization(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, smallConfig())
	if a.chs[0].busyUntil != 0 {
		t.Fatal("idle array should have a free channel")
	}
	a.ReadPage(0, func() {})
	eng.Run()
	// The page transfers out last, so the channel is busy until the read
	// completes, for channelXfer of the readLatency+channelXfer span.
	if a.chs[0].busyUntil != eng.Now() {
		t.Fatalf("channel busy until %v, read completed at %v", a.chs[0].busyUntil, eng.Now())
	}
	u := float64(channelXfer) / float64(eng.Now())
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestBusyUntilAccessors(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, smallConfig())
	a.WritePage(0, nil)
	if a.chs[0].busyUntil != channelXfer {
		t.Fatalf("channel busy until %v", a.chs[0].busyUntil)
	}
	if a.chs[0].chips[0].busyUntil != channelXfer+writeLatency {
		t.Fatalf("chip busy until %v", a.chs[0].chips[0].busyUntil)
	}
}

func TestSixteenChannelSpread(t *testing.T) {
	// Default geometry: 16 sequential PPNs land on 16 distinct channels.
	eng := sim.NewEngine()
	a := New(eng, DefaultConfig())
	seen := map[int]bool{}
	for p := int64(0); p < 16; p++ {
		ch, _ := a.Locate(p)
		seen[ch] = true
	}
	if len(seen) != 16 {
		t.Fatalf("16 sequential PPNs hit %d channels, want 16", len(seen))
	}
	// All 16 writes complete in one program window.
	doneCount := 0
	for p := int64(0); p < 16; p++ {
		a.WritePage(p, func() { doneCount++ })
	}
	eng.Run()
	want := channelXfer + writeLatency
	if doneCount != 16 {
		t.Fatalf("completed %d writes", doneCount)
	}
	if eng.Now() != want {
		t.Fatalf("16 parallel writes took %v, want %v", eng.Now(), want)
	}
}
