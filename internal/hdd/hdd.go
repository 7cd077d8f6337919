// Package hdd models the SATA rotational disk of Table 4 (1 TB, 7200 rpm,
// SATA 6 Gb/s): distance-dependent seek, rotational latency, media-rate
// transfer, and a single actuator that serves requests one at a time.
// Random accesses pay seek + rotation, so latency grows linearly with read
// randomness — the Fig. 5(c) characteristic.
package hdd

import (
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Mechanical constants (7200 rpm class drive).
const (
	// RotationPeriod is one revolution at 7200 rpm (≈8.33 ms).
	RotationPeriod = 8333 * sim.Microsecond
	// MinSeek is the track-to-track seek time.
	MinSeek = 500 * sim.Microsecond
	// MaxSeek is the full-stroke seek time.
	MaxSeek = 10 * sim.Millisecond
	// MediaRate is the sustained media transfer rate (bytes/sec).
	MediaRate = int64(150) * 1000 * 1000
	// SeqWindow is how close a request must start to the previous end to
	// count as sequential (no seek, no rotation).
	SeqWindow = 64 * 1024
)

// Config parameterizes an HDD.
type Config struct {
	Name     string
	Capacity int64
	Seed     uint64 // rotational-phase RNG seed
}

// HDD is the device.
type HDD struct {
	device.Base
	eng *sim.Engine
	rng *sim.RNG

	headPos     int64 // byte position of the head
	busyUntil   sim.Time
	outstanding int
	seeks       uint64
	seqHits     uint64

	free sim.FreeList[request]
}

// request is one submitted I/O waiting for the actuator. Its completion is
// bound once, on the record's first use, and the record is recycled just
// before done runs.
type request struct {
	h    *HDD
	r    *trace.IORequest
	done device.Completion

	onFinish func() // bound: the mechanical service ended
}

func (q *request) finish() {
	h, r, done := q.h, q.r, q.done
	q.r, q.done = nil, nil
	h.free.Put(q)
	r.Complete = h.eng.Now()
	h.outstanding--
	h.Metrics().Observe(r)
	if done != nil {
		done(r)
	}
}

var _ device.Device = (*HDD)(nil)

// New builds an HDD.
func New(eng *sim.Engine, cfg Config) *HDD {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 40
	}
	return &HDD{
		Base: device.NewBase(cfg.Name, device.KindHDD, cfg.Capacity),
		eng:  eng,
		rng:  sim.NewRNG(cfg.Seed),
	}
}

// Seeks returns how many requests required a mechanical seek.
func (h *HDD) Seeks() uint64 { return h.seeks }

// RegisterTelemetry exposes the HDD under prefix (e.g. "node0.hdd."):
// device metrics plus mechanical-behaviour counters.
func (h *HDD) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	h.Metrics().RegisterTelemetry(reg, prefix)
	reg.Gauge(prefix+"seeks", func() float64 { return float64(h.seeks) })
	reg.Gauge(prefix+"seq_hits", func() float64 { return float64(h.seqHits) })
	reg.Gauge(prefix+"outstanding", func() float64 { return float64(h.outstanding) })
}

// serviceTime computes the mechanical time for one request and advances
// head state.
func (h *HDD) serviceTime(r *trace.IORequest) sim.Time {
	var t sim.Time
	dist := r.Offset - h.headPos
	if dist < 0 {
		dist = -dist
	}
	if dist > SeqWindow {
		// Seek proportional to stroke distance, plus rotational latency.
		frac := float64(dist) / float64(h.Capacity())
		if frac > 1 {
			frac = 1
		}
		t += MinSeek + sim.Time(frac*float64(MaxSeek-MinSeek))
		t += sim.Time(h.rng.Int63n(int64(RotationPeriod)))
		h.seeks++
	} else {
		h.seqHits++
	}
	// Media transfer.
	if r.Size > 0 {
		t += sim.Time(float64(r.Size) / float64(MediaRate) * 1e9)
	}
	h.headPos = r.Offset + r.Size
	return t
}

// Submit implements device.Device. Requests serialize on the single
// actuator in FIFO order. A pre-marked failed request (fault injection)
// still pays full mechanical service — the head moved regardless — and the
// error rides out on the completion; Metrics.Observe keeps its
// time-to-failure out of the latency statistics.
func (h *HDD) Submit(r *trace.IORequest, done device.Completion) {
	r.Issue = h.eng.Now()
	h.outstanding++
	start := h.eng.Now()
	if h.busyUntil > start {
		start = h.busyUntil
	}
	finish := start + h.serviceTime(r)
	h.busyUntil = finish
	q := h.free.Get()
	if q.h == nil {
		q.h = h
		q.onFinish = q.finish
	}
	q.r, q.done = r, done
	h.eng.At(finish, q.onFinish)
}
