// Package bus models the shared DDR memory channel that both DRAM DIMMs
// and NVDIMMs sit on (paper §2.1). The channel is the contended resource:
// DRAM demand traffic and NVDIMM block-I/O transfers compete for it, and
// the extra queuing an NVDIMM transfer suffers behind DRAM traffic is
// exactly the bus-contention delay BC that the paper's model estimates
// (Eq. 3).
package bus

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Priority classes for channel arbitration. DRAM demand requests are
// latency-critical and served first, which is what throttles NVDIMM I/O
// under heavy memory traffic (paper §3, Fig. 3/4).
type Priority uint8

const (
	// PriMem is DRAM demand traffic (highest priority).
	PriMem Priority = iota
	// PriIO is NVDIMM block-I/O traffic.
	PriIO
	numPriorities
)

// DDR3-1600 channel constants (Table 4: 12800 MB/s interface).
const (
	// BandwidthBytesPerSec is the peak channel bandwidth.
	BandwidthBytesPerSec = 12800 * 1000 * 1000
	// SyncBufferLatency is the NVDIMM synchronization-buffer access time
	// paid once per NVDIMM transfer (Table 4: 52 ns).
	SyncBufferLatency = 52 * sim.Nanosecond
)

// TransferTime returns the channel occupancy for moving n bytes at DDR3-1600
// peak bandwidth.
func TransferTime(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	ns := float64(n) / float64(BandwidthBytesPerSec) * 1e9
	t := sim.Time(ns)
	if t < 1 {
		t = 1
	}
	return t
}

// grant is one pending channel acquisition.
type grant struct {
	hold    sim.Time
	queued  sim.Time
	granted func(start sim.Time)
}

// Channel states: who frees the channel once the current hold ends.
const (
	chFree      uint8 = iota
	chGranting        // a grant callback runs; its release key is not reserved yet
	chHeld            // the release key is reserved on the release lane
	chReleasing       // the release is armed as an event
)

// Channel is one DDR channel shared by a DRAM DIMM and an NVDIMM. Acquire
// requests channel time; grants are strict-priority, FIFO within a
// priority. Wait time by class is recorded so experiments can report the
// contention NVDIMM traffic experienced.
//
// A hold's release is a reserved key on a sim.Lane, not an event: with
// no grant queued, releasing would only mark the channel free, and an
// Acquire after the key has passed finds it free anyway. The first
// Acquire that has to queue arms the release under its reserved key, so
// the release that dispatches the next grant runs exactly where an
// always-scheduled release would have.
type Channel struct {
	eng       *sim.Engine
	state     uint8
	release   *sim.Lane                      // the current hold's release key, until it passes or is armed
	queues    [numPriorities]sim.Ring[grant] // waiters by value; Pop drops the callback
	onRelease func()                         // bound once: frees the channel and grants the next waiter
	waitUS    [numPriorities]stats.RunningMean
	busyTime  sim.Time
	grants    [numPriorities]uint64

	// tr, when set, records each granted I/O-class acquisition as a span
	// covering queue wait + transfer (DRAM demand grants are too numerous
	// to trace individually; their effect shows up as the I/O wait).
	tr    *telemetry.Tracer
	track string
}

// NewChannel creates a channel bound to the engine. The channel index
// argument is unused; it stays because the perfbench module passes it.
func NewChannel(eng *sim.Engine, _ int) *Channel {
	c := &Channel{eng: eng, release: eng.NewLane()}
	c.onRelease = func() {
		c.state = chFree
		c.dispatch()
	}
	return c
}

// Acquire asks for the channel for hold nanoseconds at the given priority.
// granted runs at the simulated time the transfer begins; the channel is
// released automatically after hold. Use the start argument to compute
// queuing delay.
func (c *Channel) Acquire(pri Priority, hold sim.Time, granted func(start sim.Time)) {
	if hold < 0 {
		hold = 0
	}
	c.queues[pri].Push(grant{hold: hold, queued: c.eng.Now(), granted: granted})
	if !c.busy() {
		c.dispatch()
		return
	}
	if c.state == chHeld {
		c.release.Arm(c.onRelease)
		c.state = chReleasing
	}
}

// busy reports whether a hold is in progress. A reserved release key the
// engine has passed ends its hold here.
func (c *Channel) busy() bool {
	if c.state == chHeld && c.release.PopPassed() > 0 {
		c.state = chFree
	}
	return c.state != chFree
}

// dispatch grants the channel to the highest-priority waiter.
func (c *Channel) dispatch() {
	p := Priority(0)
	for p < numPriorities && c.queues[p].Len() == 0 {
		p++
	}
	if p == numPriorities {
		return
	}
	g := c.queues[p].Pop()
	now := c.eng.Now()
	c.waitUS[p].Add((now - g.queued).Micros())
	c.grants[p]++
	if c.tr != nil && p == PriIO {
		c.tr.Complete(c.track, "xfer", "bus", g.queued, now+g.hold,
			telemetry.F("wait_us", (now-g.queued).Micros()))
	}
	c.state = chGranting
	c.busyTime += g.hold
	g.granted(now)
	// The release key is reserved after the grant callback, so events the
	// callback schedules for the release time dispatch before the release.
	c.release.Reserve(now + g.hold)
	c.state = chHeld
	if c.queues[PriMem].Len()+c.queues[PriIO].Len() > 0 {
		// The grant callback queued a waiter: the release must run.
		c.release.Arm(c.onRelease)
		c.state = chReleasing
	}
}

// MeanWaitUS returns the mean queuing delay (µs) seen by the class.
func (c *Channel) MeanWaitUS(pri Priority) float64 { return c.waitUS[pri].Mean() }

// Grants returns how many acquisitions of the class have been granted.
func (c *Channel) Grants(pri Priority) uint64 { return c.grants[pri] }

// Utilization returns busy-time divided by elapsed simulated time.
func (c *Channel) Utilization() float64 {
	now := c.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(c.busyTime) / float64(now)
}

// SetTracer enables I/O-grant spans on the given track (nil disables).
func (c *Channel) SetTracer(tr *telemetry.Tracer, track string) {
	c.tr = tr
	c.track = track
}

// RegisterTelemetry exposes the channel under prefix: utilization, mean
// queue wait per class, and grant counts. The bus-contention signal of
// Eq. 3 is io_wait_us_mean — the queuing NVDIMM transfers suffer behind
// DRAM demand traffic.
func (c *Channel) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"util", c.Utilization)
	reg.Gauge(prefix+"io_wait_us_mean", func() float64 { return c.MeanWaitUS(PriIO) })
	reg.Gauge(prefix+"mem_wait_us_mean", func() float64 { return c.MeanWaitUS(PriMem) })
	reg.Gauge(prefix+"io_grants", func() float64 { return float64(c.grants[PriIO]) })
	reg.Gauge(prefix+"mem_grants", func() float64 { return float64(c.grants[PriMem]) })
}

// Interconnect is the set of memory channels on one server node. Table 4
// configures 4 channels, each carrying one DRAM DIMM; the NVDIMM sits on
// channel 0.
type Interconnect struct {
	channels []*Channel
}

// NewInterconnect creates n channels on the engine.
func NewInterconnect(eng *sim.Engine, n int) *Interconnect {
	ic := &Interconnect{channels: make([]*Channel, n)}
	for i := range ic.channels {
		ic.channels[i] = NewChannel(eng, i)
	}
	return ic
}

// Channel returns channel i.
func (ic *Interconnect) Channel(i int) *Channel { return ic.channels[i] }

// NumChannels returns the channel count.
func (ic *Interconnect) NumChannels() int { return len(ic.channels) }

// RegisterTelemetry exposes every channel under prefix ("bus.ch<i>.").
// The NVDIMM's bus-contention signal is ch0's io_wait_us_mean.
func (ic *Interconnect) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	for i, c := range ic.channels {
		c.RegisterTelemetry(reg, fmt.Sprintf("%sch%d.", prefix, i))
	}
}

// SetTracer enables I/O-grant spans on every channel, on tracks named
// trackPrefix+"ch<i>".
func (ic *Interconnect) SetTracer(tr *telemetry.Tracer, trackPrefix string) {
	for i, c := range ic.channels {
		c.SetTracer(tr, fmt.Sprintf("%sch%d", trackPrefix, i))
	}
}
