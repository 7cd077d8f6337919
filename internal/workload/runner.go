package workload

import (
	"math"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Target accepts I/O requests. Devices satisfy it directly; the management
// layer's VMDK handles satisfy it with placement indirection.
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
	id      int

	running   bool
	inFlight  int
	think     []*sim.Timer // pending think-time refills; Stop cancels them
	nextID    uint64
	seqRead   int64 // next sequential read offset
	seqWrite  int64 // next sequential write offset
	writesCnt int

	issued    uint64
	completed uint64
	errored   uint64
	latency   sim.Time // cumulative, successful completions only

	// OnComplete, when set, observes every completed request.
	OnComplete func(*trace.IORequest)

	tr    *telemetry.Tracer
	track string
}

// NewRunner builds a runner; it panics on an invalid profile.
func NewRunner(eng *sim.Engine, rng *sim.RNG, p Profile, target Target, id int) *Runner {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Runner{eng: eng, rng: rng, profile: p, target: target, id: id}
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
	for _, t := range r.think {
		t.Stop()
	}
	r.think = r.think[:0]
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

// nextRequest draws one request from the profile.
func (r *Runner) nextRequest() *trace.IORequest {
	p := r.profile
	r.nextID++
	req := &trace.IORequest{
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
	return req
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

// issueOne submits the next request and chains the refill.
func (r *Runner) issueOne() {
	req := r.nextRequest()
	r.inFlight++
	r.issued++
	if req.Op == trace.OpWrite && r.profile.Persistent && r.profile.BarrierEvery > 0 {
		r.writesCnt++
		if r.writesCnt%r.profile.BarrierEvery == 0 {
			if bt, ok := r.target.(BarrierTarget); ok {
				bt.Barrier()
			}
		}
	}
	r.target.Submit(req, func(done *trace.IORequest) {
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
		if !r.running {
			return
		}
		if r.profile.ThinkTime > 0 {
			// Drop fired handles before tracking a new one so the slice
			// stays bounded by the outstanding-IO depth.
			live := r.think[:0]
			for _, t := range r.think {
				if t.Active() {
					live = append(live, t)
				}
			}
			r.think = append(live, r.eng.After(r.profile.ThinkTime, r.issueOne))
		} else {
			r.issueOne()
		}
	})
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
