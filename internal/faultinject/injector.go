package faultinject

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Injection error values. They travel on trace.IORequest.Err and through
// Network.Transfer callbacks; layers above match them only by non-nilness.
var (
	// ErrInjectedIO is a probabilistic per-request media error.
	ErrInjectedIO = errors.New("faultinject: injected I/O error")
	// ErrDeviceOffline fails every request during an outage episode.
	ErrDeviceOffline = errors.New("faultinject: device offline")
	// ErrLinkDropped fails a cross-node transfer on a lossy link.
	ErrLinkDropped = errors.New("faultinject: link transfer dropped")
	// ErrCrashed fails a request whose completion ack was lost to a power
	// loss: the device may have performed the I/O, but the submitter must
	// treat it as never having happened (DESIGN.md §13).
	ErrCrashed = errors.New("faultinject: device crashed before completion")
)

// Crash describes one resolved power-loss event: either a whole node
// (Device == "") or a single device (Device names it; Node is the index
// WrapDeviceOn supplied, or -1 if the device was wrapped without one).
// The instant At is fixed at arm time — crash@FROM..TO windows are
// resolved by the target's seed-derived RNG when the injector is built,
// so the schedule is deterministic per (seed, spec).
type Crash struct {
	At     sim.Time
	Node   int
	Device string
}

// String renders the crash event for reports and logs.
func (c Crash) String() string {
	if c.Device == "" {
		return fmt.Sprintf("crash node=%d @%s", c.Node, durString(c.At))
	}
	return fmt.Sprintf("crash dev=%s @%s", c.Device, durString(c.At))
}

// FailLatency is how long a failing fast path takes to report: outage
// rejections and link drops complete after this fixed delay (an error is
// detected by a timeout/NAK, not instantaneously, but we keep it cheap and
// deterministic).
const FailLatency = 100 * sim.Microsecond

// Network is the cross-node transfer surface the injector can wrap. It is
// structurally identical to mgmt.Network, so *cluster.Cluster satisfies it
// and the wrapped result satisfies mgmt.Network — no package cycle.
type Network interface {
	Transfer(srcNode, dstNode int, bytes int64, done func(error))
}

// DeviceStats counts injections against one device.
type DeviceStats struct {
	// InjectedErrors is the number of requests failed by errate.
	InjectedErrors uint64
	// OutageFailures is the number of requests rejected during outages.
	OutageFailures uint64
	// Degraded is the number of requests slowed by degrade.
	Degraded uint64
	// Crashes is the number of power-loss events fired against the device.
	Crashes uint64
	// CrashFailures is the number of in-flight requests whose completion
	// ack was lost to a crash (failed with ErrCrashed).
	CrashFailures uint64
}

// NodeStats counts injections against one node-scoped crash clause.
type NodeStats struct {
	// Crashes is the number of power-loss events fired against the node.
	Crashes uint64
	// CrashFailures is the number of in-flight requests on the node's
	// devices whose completion ack was lost to a crash.
	CrashFailures uint64
}

// LinkStats counts injections against one link.
type LinkStats struct {
	// Dropped is the number of transfers failed by drop.
	Dropped uint64
	// Stalled is the number of transfers delayed by stall.
	Stalled uint64
}

// Stats is the aggregate injection census.
type Stats struct {
	Devices []DeviceStats
	Links   []LinkStats
	Nodes   []NodeStats
}

// Totals sums the per-target counters.
func (s Stats) Totals() (injected, outages, degraded, dropped, stalled uint64) {
	for _, d := range s.Devices {
		injected += d.InjectedErrors
		outages += d.OutageFailures
		degraded += d.Degraded
	}
	for _, l := range s.Links {
		dropped += l.Dropped
		stalled += l.Stalled
	}
	return
}

// CrashTotals sums the crash counters across devices and nodes. They are
// reported separately from Totals so crash-free specs keep the exact
// five-counter census format older reports and digests depend on.
func (s Stats) CrashTotals() (crashes, crashFailed uint64) {
	for _, d := range s.Devices {
		crashes += d.Crashes
		crashFailed += d.CrashFailures
	}
	for _, n := range s.Nodes {
		crashes += n.Crashes
		crashFailed += n.CrashFailures
	}
	return
}

// String renders the census. Crash counters are appended only when a crash
// actually fired, so crash-free runs render byte-identically to before the
// crash model existed.
func (s Stats) String() string {
	injected, outages, degraded, dropped, stalled := s.Totals()
	base := fmt.Sprintf("faults: %d injected errors, %d outage failures, %d degraded, %d dropped transfers, %d stalled transfers",
		injected, outages, degraded, dropped, stalled)
	if crashes, crashFailed := s.CrashTotals(); crashes > 0 {
		base += fmt.Sprintf(", %d crashes, %d crash-failed requests", crashes, crashFailed)
	}
	return base
}

// devFaults is the armed state for one device.
type devFaults struct {
	clause  DeviceClause
	rng     *sim.RNG
	matched bool
	stats   DeviceStats
	node    int      // node the device was wrapped on (-1 unknown)
	crashAt sim.Time // resolved crash instant (0 = no crash armed)
	gen     uint64   // power-loss generation, bumped at each crash
}

// nodeFaults is the armed state for one node-scoped crash clause.
type nodeFaults struct {
	clause  NodeClause
	rng     *sim.RNG
	stats   NodeStats
	crashAt sim.Time
	gen     uint64
}

// linkFaults is the armed state for one link.
type linkFaults struct {
	clause LinkClause
	rng    *sim.RNG
	stats  LinkStats
}

// Injector arms a parsed Spec against a simulation. Its RNG is seeded from
// the run seed but independent of every other stream in the system (it is
// NOT split from a shared RNG — splitting consumes a draw from the parent
// and would perturb fault-free runs). Each targeted device and link gets
// its own sub-stream so adding a clause never re-times another clause's
// draws.
type Injector struct {
	eng   *sim.Engine
	spec  *Spec
	devs  map[string]*devFaults
	links map[[2]int]*linkFaults
	nodes map[int]*nodeFaults
	armed bool
}

// seedSalt decorrelates the injector stream from the run seed itself.
const seedSalt = 0xFA171A7EC7ED5EED

// New arms spec on the engine with a seed-derived independent RNG.
func New(eng *sim.Engine, seed uint64, spec *Spec) *Injector {
	in := &Injector{
		eng:   eng,
		spec:  spec,
		devs:  make(map[string]*devFaults),
		links: make(map[[2]int]*linkFaults),
		nodes: make(map[int]*nodeFaults),
	}
	root := sim.NewRNG(seed ^ seedSalt)
	for _, c := range spec.Devices {
		f := &devFaults{clause: c, rng: root.Split(), node: -1}
		f.crashAt = resolveCrash(c.Faults, f.rng)
		in.devs[c.Device] = f
	}
	for _, c := range spec.Links {
		in.links[[2]int{c.A, c.B}] = &linkFaults{clause: c, rng: root.Split()}
	}
	for _, c := range spec.Nodes {
		nf := &nodeFaults{clause: c, rng: root.Split()}
		nf.crashAt = resolveCrash(c.Faults, nf.rng)
		in.nodes[c.Node] = nf
	}
	return in
}

// resolveCrash fixes a clause's crash instant: the exact At when given,
// otherwise a draw from the window by the target's own RNG. The draw
// happens here, at arm time, so the whole crash schedule is known before
// the run starts and is identical for any -jobs value.
func resolveCrash(faults []Fault, rng *sim.RNG) sim.Time {
	for _, f := range faults {
		if f.Kind != FaultCrash {
			continue
		}
		if f.At > 0 {
			return f.At
		}
		at := f.Win.From + sim.Time(rng.Int63n(int64(f.Win.To-f.Win.From)))
		if at == 0 {
			at = 1 // 0 means "no crash armed"; clamp a @0..T draw to 1ns
		}
		return at
	}
	return 0
}

// WrapDeviceOn interposes the injector on a device that lives on the given
// node, applying both its own dev= clause (if any) and the node's crash
// clause (if any). Devices matched by neither are returned unchanged.
func (in *Injector) WrapDeviceOn(node int, d device.Device) device.Device {
	f := in.devs[d.Name()]
	var nf *nodeFaults
	if node >= 0 {
		nf = in.nodes[node]
	}
	if f == nil && nf == nil {
		return d
	}
	if f != nil {
		f.matched = true
		if node >= 0 {
			f.node = node
		}
	}
	return &faultyDevice{Device: d, in: in, f: f, nf: nf}
}

// UnmatchedDevices returns spec device names WrapDevice never saw — a
// misspelled target would otherwise silently arm nothing.
func (in *Injector) UnmatchedDevices() []string {
	var missing []string
	for name, f := range in.devs {
		if !f.matched {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

// MaxLinkNode returns the largest node index named by a link clause (-1
// when no link clauses exist), for validation against the cluster size.
func (in *Injector) MaxLinkNode() int {
	max := -1
	for key := range in.links {
		if key[1] > max {
			max = key[1]
		}
	}
	return max
}

// MaxCrashNode returns the largest node index named by a node= clause (-1
// when none exist), for validation against the cluster size.
func (in *Injector) MaxCrashNode() int {
	max := -1
	for idx := range in.nodes {
		if idx > max {
			max = idx
		}
	}
	return max
}

// Arm schedules every resolved crash on the engine. At each crash instant
// the target's power-loss generation is bumped first — so in-flight
// completions observe the crash — and then onCrash runs to tear down
// volatile state and drive recovery. Arm is a no-op when called twice or
// when the spec has no crash clauses; onCrash may be nil.
func (in *Injector) Arm(onCrash func(Crash)) {
	if in.armed {
		return
	}
	in.armed = true
	for _, c := range in.spec.Devices {
		f := in.devs[c.Device]
		if f.crashAt == 0 {
			continue
		}
		in.eng.At(f.crashAt, func() {
			f.gen++
			f.stats.Crashes++
			if onCrash != nil {
				onCrash(Crash{At: f.crashAt, Node: f.node, Device: f.clause.Device})
			}
		})
	}
	for _, c := range in.spec.Nodes {
		nf := in.nodes[c.Node]
		in.eng.At(nf.crashAt, func() {
			nf.gen++
			nf.stats.Crashes++
			if onCrash != nil {
				onCrash(Crash{At: nf.crashAt, Node: nf.clause.Node})
			}
		})
	}
}

// WrapNetwork interposes the injector on cross-node transfers; with no link
// clauses the network is returned unchanged.
func (in *Injector) WrapNetwork(n Network) Network {
	if len(in.links) == 0 {
		return n
	}
	return &faultyNetwork{inner: n, in: in}
}

// Stats snapshots the injection census in spec order.
func (in *Injector) Stats() Stats {
	var s Stats
	for _, c := range in.spec.Devices {
		s.Devices = append(s.Devices, in.devs[c.Device].stats)
	}
	for _, c := range in.spec.Links {
		s.Links = append(s.Links, in.links[[2]int{c.A, c.B}].stats)
	}
	for _, c := range in.spec.Nodes {
		s.Nodes = append(s.Nodes, in.nodes[c.Node].stats)
	}
	return s
}

// RegisterTelemetry exposes the injection counters under prefix (e.g.
// "faults."): per-target and total gauges.
func (in *Injector) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	for _, c := range in.spec.Devices {
		f := in.devs[c.Device]
		p := prefix + "dev." + c.Device + "."
		reg.Gauge(p+"injected_errors", func() float64 { return float64(f.stats.InjectedErrors) })
		reg.Gauge(p+"outage_failures", func() float64 { return float64(f.stats.OutageFailures) })
		reg.Gauge(p+"degraded", func() float64 { return float64(f.stats.Degraded) })
	}
	for _, c := range in.spec.Links {
		lf := in.links[[2]int{c.A, c.B}]
		p := fmt.Sprintf("%slink.%d-%d.", prefix, c.A, c.B)
		reg.Gauge(p+"dropped", func() float64 { return float64(lf.stats.Dropped) })
		reg.Gauge(p+"stalled", func() float64 { return float64(lf.stats.Stalled) })
	}
	// Crash gauges exist only for crash-armed targets, so crash-free specs
	// add no sampler columns and keep older CSV artifacts byte-identical.
	for _, c := range in.spec.Devices {
		f := in.devs[c.Device]
		if f.crashAt == 0 {
			continue
		}
		p := prefix + "dev." + c.Device + "."
		reg.Gauge(p+"crashes", func() float64 { return float64(f.stats.Crashes) })
		reg.Gauge(p+"crash_failures", func() float64 { return float64(f.stats.CrashFailures) })
	}
	for _, c := range in.spec.Nodes {
		nf := in.nodes[c.Node]
		p := fmt.Sprintf("%snode.%d.", prefix, c.Node)
		reg.Gauge(p+"crashes", func() float64 { return float64(nf.stats.Crashes) })
		reg.Gauge(p+"crash_failures", func() float64 { return float64(nf.stats.CrashFailures) })
	}
	reg.Gauge(prefix+"total_injected", func() float64 {
		injected, outages, _, _, _ := in.Stats().Totals()
		return float64(injected + outages)
	})
}

// faultyDevice wraps a device.Device, failing or slowing requests per the
// armed clause. The embedded Device serves every method the injector does
// not interpose. Either f (dev= clause) or nf (the node's crash clause)
// may be nil, but not both.
type faultyDevice struct {
	device.Device
	in *Injector
	f  *devFaults
	nf *nodeFaults
}

// crashArmed reports whether any crash can still hit this device.
func (fd *faultyDevice) crashArmed() bool {
	return (fd.f != nil && fd.f.crashAt > 0) || (fd.nf != nil && fd.nf.crashAt > 0)
}

// guardCrash wraps a completion so that if a power loss fires between
// submit and completion, the request fails with ErrCrashed: the media may
// hold the data, but the ack died with the power, and the submitter must
// treat the I/O as never having happened. The device's own metrics record
// the request as it actually executed — the loss is at the ack layer.
func (fd *faultyDevice) guardCrash(done device.Completion) device.Completion {
	var fg, ng uint64
	if fd.f != nil {
		fg = fd.f.gen
	}
	if fd.nf != nil {
		ng = fd.nf.gen
	}
	return func(c *trace.IORequest) {
		if c.Err == nil {
			if fd.f != nil && fd.f.gen != fg {
				c.Err = ErrCrashed
				fd.f.stats.CrashFailures++
			} else if fd.nf != nil && fd.nf.gen != ng {
				c.Err = ErrCrashed
				fd.nf.stats.CrashFailures++
			}
		}
		if done != nil {
			done(c)
		}
	}
}

// Submit implements device.Device with fault interposition.
func (fd *faultyDevice) Submit(r *trace.IORequest, done device.Completion) {
	eng := fd.in.eng
	now := eng.Now()
	if fd.crashArmed() {
		done = fd.guardCrash(done)
	}
	if fd.f == nil {
		fd.Device.Submit(r, done)
		return
	}
	var degrade float64
	for _, fault := range fd.f.clause.Faults {
		if !fault.Win.Active(now) {
			continue
		}
		switch fault.Kind {
		case FaultOutage:
			// The device is gone: fail fast without touching it, so an
			// outage also starves the inner device of traffic.
			fd.f.stats.OutageFailures++
			r.Issue = now
			eng.Schedule(FailLatency, func() {
				r.Err = ErrDeviceOffline
				r.Complete = eng.Now()
				fd.Device.Metrics().Observe(r)
				if done != nil {
					done(r)
				}
			})
			return
		case FaultErrRate:
			if r.Err == nil && fd.f.rng.Bool(fault.P) {
				// Mark the request failed and still submit it: the device
				// pays realistic service time before reporting the error.
				fd.f.stats.InjectedErrors++
				r.Err = ErrInjectedIO
			}
		case FaultDegrade:
			degrade = fault.Factor
		}
	}
	if degrade > 1 {
		fd.f.stats.Degraded++
		fd.Device.Submit(r, func(c *trace.IORequest) {
			extra := sim.Time(float64(c.Complete-c.Issue) * (degrade - 1))
			if extra <= 0 {
				if done != nil {
					done(c)
				}
				return
			}
			eng.Schedule(extra, func() {
				c.Complete = eng.Now()
				if done != nil {
					done(c)
				}
			})
		})
		return
	}
	fd.Device.Submit(r, done)
}

// Barrier forwards persistence barriers to the inner device when it
// supports them (the embedded-interface method set would otherwise hide
// the concrete NVDIMM's Barrier from type assertions).
func (fd *faultyDevice) Barrier() {
	if b, ok := fd.Device.(interface{ Barrier() }); ok {
		b.Barrier()
	}
}

// faultyNetwork wraps a Network with per-link drop/stall faults.
type faultyNetwork struct {
	inner Network
	in    *Injector
}

// Transfer implements Network with fault interposition.
func (fn *faultyNetwork) Transfer(srcNode, dstNode int, bytes int64, done func(error)) {
	a, b := srcNode, dstNode
	if a > b {
		a, b = b, a
	}
	lf := fn.in.links[[2]int{a, b}]
	if lf == nil {
		fn.inner.Transfer(srcNode, dstNode, bytes, done)
		return
	}
	eng := fn.in.eng
	now := eng.Now()
	var stall sim.Time
	for _, fault := range lf.clause.Faults {
		if !fault.Win.Active(now) {
			continue
		}
		switch fault.Kind {
		case FaultDrop:
			if lf.rng.Bool(fault.P) {
				lf.stats.Dropped++
				eng.Schedule(FailLatency, func() {
					if done != nil {
						done(ErrLinkDropped)
					}
				})
				return
			}
		case FaultStall:
			stall = fault.Stall
		}
	}
	if stall > 0 {
		lf.stats.Stalled++
		fn.inner.Transfer(srcNode, dstNode, bytes, func(err error) {
			eng.Schedule(stall, func() {
				if done != nil {
					done(err)
				}
			})
		})
		return
	}
	fn.inner.Transfer(srcNode, dstNode, bytes, done)
}
