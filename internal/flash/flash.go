// Package flash models a multi-channel NAND flash array — the substrate
// NANDFlashSim provided in the paper's testbed. Geometry and latencies
// follow Table 4: 16 channels × 4 chips, 128 pages/block, 4 KB pages,
// 50 µs page read, 650 µs page program, 2 ms block erase.
//
// Chips within a channel operate in parallel; the channel bus serializes
// data transfers. Channel-level parallelism is the resource the paper's
// migration-aware scheduling policies (§5.3.1) exploit.
package flash

import (
	"fmt"

	"repro/internal/sim"
)

// PageSize is the flash page size in bytes (Table 4).
const PageSize = 4096

// Table 4 NAND timing.
const (
	readLatency  = 50 * sim.Microsecond  // cell-to-register page read
	writeLatency = 650 * sim.Microsecond // register-to-cell page program
	eraseLatency = 2 * sim.Millisecond   // block erase
	channelXfer  = 10 * sim.Microsecond  // one page over the flash channel bus
)

// Config describes the array geometry.
type Config struct {
	NumChannels     int
	ChipsPerChannel int
	PagesPerBlock   int
}

// DefaultConfig returns the Table 4 NVDIMM/SSD flash geometry.
func DefaultConfig() Config {
	return Config{
		NumChannels:     16,
		ChipsPerChannel: 4,
		PagesPerBlock:   128,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumChannels <= 0 || c.ChipsPerChannel <= 0 || c.PagesPerBlock <= 0 {
		return fmt.Errorf("flash: non-positive geometry: %+v", c)
	}
	return nil
}

// chip tracks one NAND die's availability.
type chip struct {
	busyUntil sim.Time
}

// channel tracks the serial channel bus shared by its chips.
type channel struct {
	busyUntil sim.Time
	chips     []chip
}

// Array is the NAND array. Operations are addressed by physical page
// number (PPN); pages stripe across channels then chips so consecutive
// PPNs exploit channel-level parallelism.
type Array struct {
	eng *sim.Engine
	cfg Config
	chs []channel
}

// New builds an array; it panics on invalid configuration (construction is
// programmer-controlled).
func New(eng *sim.Engine, cfg Config) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &Array{eng: eng, cfg: cfg, chs: make([]channel, cfg.NumChannels)}
	for i := range a.chs {
		a.chs[i].chips = make([]chip, cfg.ChipsPerChannel)
	}
	return a
}

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// Locate maps a PPN to (channel, chip). Striping: channel = ppn mod C,
// chip = (ppn / C) mod K.
func (a *Array) Locate(ppn int64) (ch, cp int) {
	c := int64(a.cfg.NumChannels)
	k := int64(a.cfg.ChipsPerChannel)
	return int(ppn % c), int((ppn / c) % k)
}

// ReadPage simulates reading the page at ppn: the chip senses the page
// (readLatency), then the channel transfers it out (channelXfer). done
// fires when the data is on the controller side.
func (a *Array) ReadPage(ppn int64, done func()) {
	chIdx, cpIdx := a.Locate(ppn)
	ch := &a.chs[chIdx]
	cp := &ch.chips[cpIdx]
	now := a.eng.Now()

	start := maxTime(now, cp.busyUntil)
	senseDone := start + readLatency
	cp.busyUntil = senseDone

	xferStart := maxTime(senseDone, ch.busyUntil)
	xferDone := xferStart + channelXfer
	ch.busyUntil = xferDone

	if done != nil {
		a.eng.At(xferDone, done)
	}
}

// WritePage simulates programming the page at ppn: the channel transfers
// data in (channelXfer), then the chip programs (writeLatency). done fires
// when the program completes. The channel frees as soon as the transfer
// finishes, so other chips on the channel can proceed while this chip
// programs — the source of channel-level parallelism.
func (a *Array) WritePage(ppn int64, done func()) {
	chIdx, cpIdx := a.Locate(ppn)
	ch := &a.chs[chIdx]
	cp := &ch.chips[cpIdx]
	now := a.eng.Now()

	xferStart := maxTime(now, ch.busyUntil)
	// The target chip must also be free to accept the transfer.
	xferStart = maxTime(xferStart, cp.busyUntil)
	xferDone := xferStart + channelXfer
	ch.busyUntil = xferDone

	progDone := xferDone + writeLatency
	cp.busyUntil = progDone

	if done != nil {
		a.eng.At(progDone, done)
	}
}

// EraseBlock simulates erasing the block containing ppn (the whole chip is
// busy for eraseLatency).
func (a *Array) EraseBlock(ppn int64, done func()) {
	chIdx, cpIdx := a.Locate(ppn)
	cp := &a.chs[chIdx].chips[cpIdx]
	now := a.eng.Now()
	start := maxTime(now, cp.busyUntil)
	eraseDone := start + eraseLatency
	cp.busyUntil = eraseDone
	if done != nil {
		a.eng.At(eraseDone, done)
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
