package workload

import (
	"math"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Target accepts I/O requests. Devices satisfy it directly; the management
// layer's VMDK handles satisfy it with placement indirection. The request
// belongs to the caller, which reuses it once done has run: a target that
// keeps anything of it past the completion keeps a copy.
type Target interface {
	Submit(r *trace.IORequest, done device.Completion)
}

// BarrierTarget is optionally implemented by targets that accept
// persistence barriers (the NVDIMM).
type BarrierTarget interface {
	Barrier()
}

// Runner drives a closed-loop I/O workload against a target: it keeps
// Profile.OIO requests outstanding, drawing operation, offset, and timing
// from the profile.
type Runner struct {
	eng     *sim.Engine
	rng     *sim.RNG
	profile Profile
	target  Target
	barrier BarrierTarget // target's barrier, nil when it has none
	id      int

	running   bool
	inFlight  int
	slots     []*slot // every slot the runner has made; Stop scans them
	free      []*slot // slots with no request in flight and no refill armed
	nextID    uint64
	seqRead   int64 // next sequential read offset
	seqWrite  int64 // next sequential write offset
	writesCnt int

	issued    uint64
	completed uint64
	errored   uint64
	latency   sim.Time // cumulative, successful completions only

	// OnComplete, when set, observes every completed request. The request
	// is valid only for the call: the runner issues its next request in
	// the same record, so an observer that keeps it keeps a copy.
	OnComplete func(*trace.IORequest)

	tr    *telemetry.Tracer
	track string
}

// slot is one outstanding request of a Runner: the request itself, held
// by value, a completion bound once, and the think-time timer that refills
// the slot, re-armed with Reset. A completion issues the slot's next
// request in place, directly or when the think time has passed.
type slot struct {
	r     *Runner
	req   trace.IORequest
	think *sim.Timer // nil until the slot's first think time

	onDone  device.Completion // bound: the target completed req
	onThink func()            // bound: the think time has passed
}

func (s *slot) issue() { s.r.issue(s) }

// NewRunner builds a runner; it panics on an invalid profile.
func NewRunner(eng *sim.Engine, rng *sim.RNG, p Profile, target Target, id int) *Runner {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	r := &Runner{eng: eng, rng: rng, profile: p, target: target, id: id}
	r.barrier, _ = target.(BarrierTarget)
	return r
}

// Profile returns the runner's profile.
func (r *Runner) Profile() Profile { return r.profile }

// ID returns the workload id used to tag requests.
func (r *Runner) ID() int { return r.id }

// Start begins issuing until Stop. Restarting a running runner is a no-op.
func (r *Runner) Start() {
	if r.running {
		return
	}
	r.running = true
	for r.inFlight < r.profile.OIO {
		r.issueOne()
	}
}

// Stop ceases new issues and cancels pending think-time refills;
// in-flight requests drain naturally.
func (r *Runner) Stop() {
	r.running = false
	for _, s := range r.slots {
		if s.think != nil && s.think.Stop() {
			r.free = append(r.free, s)
		}
	}
}

// Issued returns the number of requests issued.
func (r *Runner) Issued() uint64 { return r.issued }

// Completed returns the number of successful completions observed.
func (r *Runner) Completed() uint64 { return r.completed }

// Errored returns the number of requests that completed with an injected
// or device error. Errored requests still refill the closed loop but are
// excluded from completion counts and latency.
func (r *Runner) Errored() uint64 { return r.errored }

// TotalLatency returns the cumulative completion latency observed.
func (r *Runner) TotalLatency() sim.Time { return r.latency }

// MeanLatency returns the mean completion latency so far.
func (r *Runner) MeanLatency() sim.Time {
	if r.completed == 0 {
		return 0
	}
	return r.latency / sim.Time(r.completed)
}

// InFlight returns current outstanding requests.
func (r *Runner) InFlight() int { return r.inFlight }

// SetTracer enables end-to-end request spans (issue → completion, through
// whatever placement indirection the target applies) on track.
func (r *Runner) SetTracer(tr *telemetry.Tracer, track string) {
	r.tr = tr
	r.track = track
}

// RegisterTelemetry exposes workload progress under prefix (e.g.
// "wl.0.oltp."): issued/completed counts, in-flight depth, and mean
// end-to-end latency.
func (r *Runner) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"issued", func() float64 { return float64(r.issued) })
	reg.Gauge(prefix+"completed", func() float64 { return float64(r.completed) })
	reg.Gauge(prefix+"errors", func() float64 { return float64(r.errored) })
	reg.Gauge(prefix+"inflight", func() float64 { return float64(r.inFlight) })
	reg.Gauge(prefix+"mean_lat_us", func() float64 { return r.MeanLatency().Micros() })
}

// nextRequest draws one request from the profile into req, clearing
// whatever its previous use left there.
func (r *Runner) nextRequest(req *trace.IORequest) {
	p := r.profile
	r.nextID++
	*req = trace.IORequest{
		ID:   r.nextID,
		VMDK: -1,
		Size: p.IOSize,
	}
	if r.rng.Bool(p.WriteRatio) {
		req.Op = trace.OpWrite
		if p.Persistent {
			req.Class = trace.ClassPersistent
		}
		req.Offset = r.pickOffset(&r.seqWrite, p.WriteRand)
	} else {
		req.Op = trace.OpRead
		req.Offset = r.pickOffset(&r.seqRead, p.ReadRand)
	}
}

// pickOffset advances a sequential stream or jumps randomly — uniformly,
// or Zipf-skewed when the profile asks for hot spots.
func (r *Runner) pickOffset(seq *int64, randProb float64) int64 {
	p := r.profile
	if r.rng.Bool(randProb) {
		span := maxI64(p.Footprint-p.IOSize, 1)
		if p.Skew > 0 {
			*seq = zipfOffset(r.rng, span, p.Skew)
		} else {
			*seq = r.rng.Int63n(span)
		}
	}
	off := *seq
	*seq += p.IOSize
	if *seq+p.IOSize > p.Footprint {
		*seq = 0
	}
	return off
}

// zipfOffset draws a power-law-distributed offset in [0, span): with skew
// θ the mass concentrates toward offset 0 (the approximation
// x = span·u^(1/(1−θ)) used by YCSB-style generators).
func zipfOffset(rng *sim.RNG, span int64, theta float64) int64 {
	u := rng.Float64()
	frac := math.Pow(u, 1/(1-theta))
	off := int64(frac * float64(span))
	if off >= span {
		off = span - 1
	}
	return off
}

// issueOne submits the next request on a free slot.
func (r *Runner) issueOne() {
	var s *slot
	if n := len(r.free); n > 0 {
		s = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		s = &slot{r: r}
		s.onDone = s.complete
		s.onThink = s.issue
		r.slots = append(r.slots, s)
	}
	r.issue(s)
}

// issue draws the slot's next request and submits it.
func (r *Runner) issue(s *slot) {
	req := &s.req
	r.nextRequest(req)
	r.inFlight++
	r.issued++
	if req.Op == trace.OpWrite && r.profile.Persistent && r.profile.BarrierEvery > 0 {
		r.writesCnt++
		if r.writesCnt%r.profile.BarrierEvery == 0 && r.barrier != nil {
			r.barrier.Barrier()
		}
	}
	r.target.Submit(req, s.onDone)
}

// complete accounts a finished request and refills its slot: after the
// think time, at once, or not at all once the runner is stopped.
func (s *slot) complete(done *trace.IORequest) {
	r := s.r
	r.inFlight--
	if done.Failed() {
		// The closed loop still refills — an application retries or
		// moves on — but failures do not count as served requests and
		// their (short-circuited) latency would pollute the mean.
		r.errored++
	} else {
		r.completed++
		r.latency += done.Latency()
	}
	if r.tr != nil {
		r.tr.Complete(r.track, done.Op.String(), "workload", done.Issue, done.Complete,
			telemetry.U("req", done.ID), telemetry.I("vmdk", int64(done.VMDK)),
			telemetry.I("size", done.Size))
	}
	if r.OnComplete != nil {
		r.OnComplete(done)
	}
	switch {
	case !r.running:
		r.free = append(r.free, s)
	case r.profile.ThinkTime <= 0:
		r.issue(s)
	case s.think == nil:
		s.think = r.eng.After(r.profile.ThinkTime, s.onThink)
	default:
		s.think.Reset(r.profile.ThinkTime)
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
