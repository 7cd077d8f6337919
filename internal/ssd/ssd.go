// Package ssd models the PCIe solid-state drive of Table 4: the same NAND
// array and page-level FTL as the NVDIMM, but attached through a dedicated
// PCIe 2.0 ×8 link (4096 MB/s) instead of the shared memory channel — so
// SSD latency is immune to memory-bus contention, which is exactly why the
// paper's management layer treats it differently from the NVDIMM (Eq. 5).
package ssd

import (
	"repro/internal/device"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Link and stack constants.
const (
	// LinkBandwidth is the PCIe 2.0 ×8 payload bandwidth (Table 4).
	LinkBandwidth = int64(4096) * 1000 * 1000 // bytes/sec
	// ReadOverhead is the host I/O-stack plus device firmware latency on
	// the synchronous read path. Chosen so read latency lands in the
	// Table 1 PCIe-SSD ballpark (~400 µs loaded, vs ~150 µs NVDIMM).
	ReadOverhead = 250 * sim.Microsecond
	// WriteOverhead is the (much cheaper) acknowledged-at-buffer write
	// path overhead (Table 1: ~15 µs writes).
	WriteOverhead = 12 * sim.Microsecond
	// maxPendingFlush bounds the dirty backlog before writes stall.
	maxPendingFlush = 256
)

// linkTime returns PCIe occupancy for n bytes.
func linkTime(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	t := sim.Time(float64(n) / float64(LinkBandwidth) * 1e9)
	if t < 1 {
		t = 1
	}
	return t
}

// Config parameterizes an SSD.
type Config struct {
	Name      string
	Capacity  int64
	Flash     flash.Config
	NumBlocks int
}

// DefaultConfig returns a Table 4-shaped SSD scaled to the simulated
// flash footprint.
func DefaultConfig(name string, capacity int64, numBlocks int) Config {
	return Config{
		Name:      name,
		Capacity:  capacity,
		Flash:     flash.DefaultConfig(),
		NumBlocks: numBlocks,
	}
}

// SSD is the device.
type SSD struct {
	device.Base
	eng *sim.Engine
	ftl *ftl.FTL

	linkBusyUntil sim.Time
	pendingFlush  int
	stalls        []func()
	outstanding   int
	// bufferResident tracks pages acknowledged but not yet flushed, so
	// reads of freshly written data are served from the buffer.
	bufferResident map[int64]int
}

var _ device.Device = (*SSD)(nil)

// New builds an SSD.
func New(eng *sim.Engine, cfg Config) *SSD {
	return &SSD{
		Base:           device.NewBase(cfg.Name, device.KindSSD, cfg.Capacity),
		eng:            eng,
		ftl:            ftl.New(flash.New(eng, cfg.Flash), cfg.NumBlocks),
		bufferResident: make(map[int64]int),
	}
}

// RegisterTelemetry exposes the SSD under prefix (e.g. "node0.ssd."):
// device metrics plus write-buffer backlog and FTL/GC state.
func (s *SSD) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	s.Metrics().RegisterTelemetry(reg, prefix)
	reg.Gauge(prefix+"pending_flush", func() float64 { return float64(s.pendingFlush) })
	reg.Gauge(prefix+"outstanding", func() float64 { return float64(s.outstanding) })
	reg.Gauge(prefix+"free_space_ratio", s.FreeSpaceRatio)
	reg.Gauge(prefix+"ftl.gc_runs", func() float64 { return float64(s.ftl.Stats().GCRuns) })
	reg.Gauge(prefix+"ftl.gc_writes", func() float64 { return float64(s.ftl.Stats().GCWrites) })
	reg.Gauge(prefix+"ftl.erases", func() float64 { return float64(s.ftl.Stats().Erases) })
	reg.Gauge(prefix+"ftl.free_blocks", func() float64 { return float64(s.ftl.FreeBlocks()) })
	reg.Gauge(prefix+"ftl.write_amp", s.ftl.WriteAmplification)
}

// FreeSpaceRatio reports the tighter of management and FTL free space.
func (s *SSD) FreeSpaceRatio() float64 {
	mgmt := s.Base.FreeSpaceRatio()
	phys := s.ftl.FreeSpaceRatio()
	if phys < mgmt {
		return phys
	}
	return mgmt
}

// acquireLink serializes transfers on the PCIe link.
func (s *SSD) acquireLink(bytes int64, fn func()) {
	hold := linkTime(bytes)
	start := s.eng.Now()
	if s.linkBusyUntil > start {
		start = s.linkBusyUntil
	}
	s.linkBusyUntil = start + hold
	s.eng.At(start+hold, fn)
}

// pagesOf returns the first LPN a request touches and how many
// consecutive pages it spans (at least one).
func (s *SSD) pagesOf(r *trace.IORequest) (first int64, count int) {
	ps := s.ftl.PageSize()
	first = r.Offset / ps
	if r.Size <= 0 {
		return first, 1
	}
	return first, int((r.Offset+r.Size-1)/ps-first) + 1
}

// Submit implements device.Device.
func (s *SSD) Submit(r *trace.IORequest, done device.Completion) {
	r.Issue = s.eng.Now()
	s.outstanding++
	wrapped := func(req *trace.IORequest) {
		s.outstanding--
		s.Metrics().Observe(req)
		if done != nil {
			done(req)
		}
	}
	if r.Err != nil {
		// Pre-marked failure (fault injection): the request pays the host
		// stack overhead and PCIe link occupancy before reporting the error,
		// but never touches the write buffer or flash.
		ov := WriteOverhead
		if r.Op == trace.OpRead {
			ov = ReadOverhead
		}
		s.eng.Schedule(ov, func() {
			s.acquireLink(r.Size, func() { s.complete(r, wrapped) })
		})
		return
	}
	if r.Op == trace.OpRead {
		s.read(r, wrapped)
	} else {
		s.write(r, wrapped)
	}
}

func (s *SSD) complete(r *trace.IORequest, done device.Completion) {
	r.Complete = s.eng.Now()
	done(r)
}

// read: overhead + flash reads (buffer-resident pages are free) + link
// transfer out.
func (s *SSD) read(r *trace.IORequest, done device.Completion) {
	s.eng.Schedule(ReadOverhead, func() {
		first, remaining := s.pagesOf(r)
		end := first + int64(remaining)
		pageDone := func() {
			remaining--
			if remaining == 0 {
				s.acquireLink(r.Size, func() { s.complete(r, done) })
			}
		}
		for lpn := first; lpn < end; lpn++ {
			if s.bufferResident[lpn] > 0 {
				pageDone()
				continue
			}
			s.ftl.Read(lpn, pageDone)
		}
	})
}

// write: overhead + link transfer in + buffer ack; pages flush to flash
// asynchronously with backpressure.
func (s *SSD) write(r *trace.IORequest, done device.Completion) {
	s.eng.Schedule(WriteOverhead, func() {
		s.acquireLink(r.Size, func() { s.bufferAck(r, done) })
	})
}

func (s *SSD) bufferAck(r *trace.IORequest, done device.Completion) {
	if s.pendingFlush >= maxPendingFlush {
		s.stalls = append(s.stalls, func() { s.bufferAck(r, done) })
		return
	}
	first, count := s.pagesOf(r)
	for lpn := first; lpn < first+int64(count); lpn++ {
		lpn := lpn
		s.bufferResident[lpn]++
		s.pendingFlush++
		s.ftl.Write(lpn, func() {
			s.pendingFlush--
			s.bufferResident[lpn]--
			if s.bufferResident[lpn] <= 0 {
				delete(s.bufferResident, lpn)
			}
			s.drainStalls()
		})
	}
	s.complete(r, done)
}

func (s *SSD) drainStalls() {
	for len(s.stalls) > 0 && s.pendingFlush < maxPendingFlush {
		fn := s.stalls[0]
		s.stalls = s.stalls[:copy(s.stalls, s.stalls[1:])]
		fn()
	}
}
