package faultinject

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeDevice is a fixed-latency device for wrapper tests.
type fakeDevice struct {
	device.Base
	eng     *sim.Engine
	lat     sim.Time
	submits int
}

func newFakeDevice(eng *sim.Engine, name string, lat sim.Time) *fakeDevice {
	return &fakeDevice{Base: device.NewBase(name, device.KindSSD, 1<<30), eng: eng, lat: lat}
}

func (d *fakeDevice) Submit(r *trace.IORequest, done device.Completion) {
	d.submits++
	r.Issue = d.eng.Now()
	d.eng.Schedule(d.lat, func() {
		r.Complete = d.eng.Now()
		d.Metrics().Observe(r)
		if done != nil {
			done(r)
		}
	})
}

func mustParse(t *testing.T, s string) *Spec {
	t.Helper()
	spec, err := ParseSpec(s)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", s, err)
	}
	return spec
}

func TestParseSpecEmpty(t *testing.T) {
	for _, s := range []string{"", "   ", ";", " ; "} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if !spec.Empty() {
			t.Fatalf("ParseSpec(%q) not empty: %v", s, spec)
		}
	}
}

func TestParseSpecFull(t *testing.T) {
	spec := mustParse(t, "dev=node0-nvdimm:errate=0.4@40ms..240ms,degrade=6@40ms..240ms;link=0-1:drop=0.2,stall=500us")
	if len(spec.Devices) != 1 || len(spec.Links) != 1 {
		t.Fatalf("clauses: %+v", spec)
	}
	d := spec.Devices[0]
	if d.Device != "node0-nvdimm" || len(d.Faults) != 2 {
		t.Fatalf("device clause: %+v", d)
	}
	if d.Faults[0].Kind != FaultErrRate || d.Faults[0].P != 0.4 {
		t.Fatalf("errate fault: %+v", d.Faults[0])
	}
	if d.Faults[0].Win.From != 40*sim.Millisecond || d.Faults[0].Win.To != 240*sim.Millisecond {
		t.Fatalf("window: %+v", d.Faults[0].Win)
	}
	if d.Faults[1].Kind != FaultDegrade || d.Faults[1].Factor != 6 {
		t.Fatalf("degrade fault: %+v", d.Faults[1])
	}
	l := spec.Links[0]
	if l.A != 0 || l.B != 1 || len(l.Faults) != 2 {
		t.Fatalf("link clause: %+v", l)
	}
	if l.Faults[0].Kind != FaultDrop || l.Faults[0].P != 0.2 {
		t.Fatalf("drop fault: %+v", l.Faults[0])
	}
	if l.Faults[1].Kind != FaultStall || l.Faults[1].Stall != 500*sim.Microsecond {
		t.Fatalf("stall fault: %+v", l.Faults[1])
	}
}

func TestParseSpecNormalizesLinks(t *testing.T) {
	spec := mustParse(t, "link=2-0:drop=1")
	if spec.Links[0].A != 0 || spec.Links[0].B != 2 {
		t.Fatalf("link not normalized: %+v", spec.Links[0])
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"dev=n0-ssd:errate=0.25",
		"dev=n0-nv:degrade=2.5@1ms..2ms,outage@5ms..6ms",
		"dev=a:errate=1;dev=b:outage@1ms..2ms;link=0-1:drop=0.5,stall=1ms@10ms..20ms",
	} {
		spec := mustParse(t, s)
		re := mustParse(t, spec.String())
		if spec.String() != re.String() {
			t.Fatalf("round trip: %q -> %q -> %q", s, spec.String(), re.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"garbage",
		"dev=:errate=0.5",                      // empty device name
		"dev=a",                                // no faults
		"dev=a:",                               // empty fault list
		"dev=a:bogus=1",                        // unknown fault
		"dev=a:errate=1.5",                     // probability out of range
		"dev=a:errate=-0.1",                    // negative probability
		"dev=a:errate",                         // missing value
		"dev=a:degrade=0.5",                    // factor below 1
		"dev=a:outage",                         // outage without window
		"dev=a:outage=1@1ms..2ms",              // outage takes no value
		"dev=a:drop=0.5",                       // link fault on a device
		"dev=a:stall=1ms",                      // link fault on a device
		"link=0-1:errate=0.5",                  // device fault on a link
		"link=0-0:drop=0.5",                    // self link
		"link=-1-2:drop=0.5",                   // negative node
		"link=x-y:drop=0.5",                    // non-numeric nodes
		"link=0:drop=0.5",                      // malformed pair
		"dev=a:errate=0.5@5ms..1ms",            // inverted window
		"dev=a:errate=0.5@1ms..1ms",            // empty window
		"dev=a:errate=0.5@junk..1ms",           // bad duration
		"dev=a:errate=0.5@1ms",                 // window missing '..'
		"dev=a:stall=-1ms",                     // negative duration
		"dev=a:errate=0.1,errate=0.2",          // duplicate fault kind
		"dev=a:errate=0.1;dev=a:degrade=2",     // duplicate device clause
		"link=0-1:drop=0.1;link=1-0:stall=1ms", // duplicate link clause (normalized)
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", s)
		}
	}
}

func TestWrapDeviceUntargetedIsIdentity(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 1, mustParse(t, "dev=other:errate=1"))
	d := newFakeDevice(eng, "mine", sim.Microsecond)
	if got := in.WrapDeviceOn(-1, d); got != device.Device(d) {
		t.Fatal("untargeted device was wrapped")
	}
	if missing := in.UnmatchedDevices(); len(missing) != 1 || missing[0] != "other" {
		t.Fatalf("unmatched = %v", missing)
	}
}

func TestErrRateInjectsAndDevicePaysLatency(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "dev=d:errate=1"))
	d := newFakeDevice(eng, "d", 10*sim.Microsecond)
	w := in.WrapDeviceOn(-1, d)
	var failed int
	var lat sim.Time
	for i := 0; i < 8; i++ {
		r := &trace.IORequest{ID: uint64(i), Op: trace.OpRead, Size: 4096}
		w.Submit(r, func(c *trace.IORequest) {
			if c.Failed() {
				failed++
				lat = c.Latency()
			}
		})
	}
	eng.Run()
	if failed != 8 {
		t.Fatalf("errate=1 failed %d/8", failed)
	}
	if lat != 10*sim.Microsecond {
		t.Fatalf("failed request latency %v, want full device service time", lat)
	}
	if d.submits != 8 {
		t.Fatalf("device saw %d submits, want 8 (errate forwards)", d.submits)
	}
	if d.Metrics().TotalErrors != 8 || d.Metrics().Lifetime.N() != 0 {
		t.Fatalf("metrics: errors=%d latSamples=%d", d.Metrics().TotalErrors, d.Metrics().Lifetime.N())
	}
	st := in.Stats()
	if st.Devices[0].InjectedErrors != 8 {
		t.Fatalf("stats: %+v", st.Devices[0])
	}
}

func TestOutageWindowFailsFastWithoutTouchingDevice(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "dev=d:outage@1ms..2ms"))
	d := newFakeDevice(eng, "d", 10*sim.Microsecond)
	w := in.WrapDeviceOn(-1, d)
	results := make(map[sim.Time]error)
	submitAt := func(at sim.Time) {
		eng.At(at, func() {
			r := &trace.IORequest{Op: trace.OpWrite, Size: 4096}
			w.Submit(r, func(c *trace.IORequest) { results[at] = c.Err })
		})
	}
	submitAt(0)                      // before the window: healthy
	submitAt(1500 * sim.Microsecond) // inside: offline
	submitAt(2500 * sim.Microsecond) // after: healthy again
	eng.Run()
	if results[0] != nil || results[2500*sim.Microsecond] != nil {
		t.Fatalf("outside-window requests failed: %v", results)
	}
	if !errors.Is(results[1500*sim.Microsecond], ErrDeviceOffline) {
		t.Fatalf("in-window error = %v", results[1500*sim.Microsecond])
	}
	if d.submits != 2 {
		t.Fatalf("device saw %d submits, want 2 (outage starves it)", d.submits)
	}
	if st := in.Stats(); st.Devices[0].OutageFailures != 1 {
		t.Fatalf("stats: %+v", st.Devices[0])
	}
}

func TestDegradeMultipliesLatency(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "dev=d:degrade=3"))
	d := newFakeDevice(eng, "d", 10*sim.Microsecond)
	w := in.WrapDeviceOn(-1, d)
	var doneAt sim.Time
	r := &trace.IORequest{Op: trace.OpRead, Size: 4096}
	w.Submit(r, func(c *trace.IORequest) { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 30*sim.Microsecond {
		t.Fatalf("degraded completion at %v, want 30us (3x)", doneAt)
	}
	if r.Complete != 30*sim.Microsecond {
		t.Fatalf("Complete not re-stamped: %v", r.Complete)
	}
}

type fakeNet struct {
	eng   *sim.Engine
	calls int
}

func (n *fakeNet) Transfer(src, dst int, bytes int64, done func(error)) {
	n.calls++
	n.eng.Schedule(sim.Millisecond, func() { done(nil) })
}

func TestWrapNetworkDropAndStall(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "link=0-1:drop=1"))
	inner := &fakeNet{eng: eng}
	n := in.WrapNetwork(inner)
	var got error
	var doneAt sim.Time
	n.Transfer(1, 0, 4096, func(err error) { got = err; doneAt = eng.Now() }) // reversed direction still matches
	n.Transfer(0, 2, 4096, func(err error) {})                                // untargeted link passes through
	eng.Run()
	if !errors.Is(got, ErrLinkDropped) {
		t.Fatalf("drop=1 error = %v", got)
	}
	if doneAt != FailLatency {
		t.Fatalf("drop reported at %v, want %v", doneAt, FailLatency)
	}
	if inner.calls != 1 {
		t.Fatalf("inner transfers = %d, want 1 (dropped transfer never reaches the link)", inner.calls)
	}

	eng2 := sim.NewEngine()
	in2 := New(eng2, 7, mustParse(t, "link=0-1:stall=250us"))
	inner2 := &fakeNet{eng: eng2}
	n2 := in2.WrapNetwork(inner2)
	var stallDone sim.Time
	n2.Transfer(0, 1, 4096, func(err error) {
		if err != nil {
			t.Fatalf("stall should not fail: %v", err)
		}
		stallDone = eng2.Now()
	})
	eng2.Run()
	if stallDone != sim.Millisecond+250*sim.Microsecond {
		t.Fatalf("stalled completion at %v", stallDone)
	}
	if st := in2.Stats(); st.Links[0].Stalled != 1 {
		t.Fatalf("stats: %+v", st.Links[0])
	}
}

func TestWrapNetworkWithoutLinkClausesIsIdentity(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "dev=d:errate=0.5"))
	inner := &fakeNet{eng: eng}
	if got := in.WrapNetwork(inner); got != Network(inner) {
		t.Fatal("network wrapped despite no link clauses")
	}
	if in.MaxLinkNode() != -1 {
		t.Fatalf("MaxLinkNode = %d", in.MaxLinkNode())
	}
}

func TestMaxLinkNode(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "link=0-1:drop=0.5;link=2-4:stall=1ms"))
	if in.MaxLinkNode() != 4 {
		t.Fatalf("MaxLinkNode = %d, want 4", in.MaxLinkNode())
	}
}

// TestInjectorDeterminism drives the same synthetic request stream through
// two injectors with the same seed+spec and demands identical decisions —
// the acceptance contract for reproducible failure experiments.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (Stats, []bool) {
		eng := sim.NewEngine()
		in := New(eng, 42, mustParse(t, "dev=d:errate=0.3;link=0-1:drop=0.4"))
		d := newFakeDevice(eng, "d", 5*sim.Microsecond)
		w := in.WrapDeviceOn(-1, d)
		n := in.WrapNetwork(&fakeNet{eng: eng})
		var outcomes []bool
		for i := 0; i < 200; i++ {
			at := sim.Time(i) * 20 * sim.Microsecond
			eng.At(at, func() {
				r := &trace.IORequest{Op: trace.OpRead, Size: 4096}
				w.Submit(r, func(c *trace.IORequest) { outcomes = append(outcomes, c.Failed()) })
			})
		}
		for i := 0; i < 50; i++ {
			at := sim.Time(i) * 100 * sim.Microsecond
			eng.At(at, func() {
				n.Transfer(0, 1, 1<<16, func(err error) { outcomes = append(outcomes, err != nil) })
			})
		}
		eng.Run()
		return in.Stats(), outcomes
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1.String() != s2.String() {
		t.Fatalf("stats diverged:\n%v\n%v", s1, s2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("outcome counts diverged: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d diverged", i)
		}
	}
	injected, _, _, dropped, _ := s1.Totals()
	if injected == 0 || dropped == 0 {
		t.Fatalf("probabilistic faults never fired: %v", s1)
	}
	if injected == 200 || dropped == 50 {
		t.Fatalf("probabilistic faults always fired: %v", s1)
	}
}

// TestInjectorStreamsIndependent verifies adding a clause does not re-time
// another clause's draws: the per-target sub-streams are split once, in
// spec order, from the injector's private root.
func TestInjectorStreamsIndependent(t *testing.T) {
	outcomes := func(specStr string) []bool {
		eng := sim.NewEngine()
		in := New(eng, 42, mustParse(t, specStr))
		d := newFakeDevice(eng, "a", 5*sim.Microsecond)
		w := in.WrapDeviceOn(-1, d)
		var out []bool
		for i := 0; i < 100; i++ {
			at := sim.Time(i) * 20 * sim.Microsecond
			eng.At(at, func() {
				r := &trace.IORequest{Op: trace.OpRead, Size: 4096}
				w.Submit(r, func(c *trace.IORequest) { out = append(out, c.Failed()) })
			})
		}
		eng.Run()
		return out
	}
	base := outcomes("dev=a:errate=0.3")
	with := outcomes("dev=a:errate=0.3;dev=b:errate=0.9") // device b never built; its stream is still reserved
	if len(base) != len(with) {
		t.Fatal("lengths diverged")
	}
	for i := range base {
		if base[i] != with[i] {
			t.Fatalf("adding an unrelated clause re-timed device a's draws at %d", i)
		}
	}
}

func TestStatsString(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 1, mustParse(t, "dev=d:errate=1"))
	d := newFakeDevice(eng, "d", sim.Microsecond)
	w := in.WrapDeviceOn(-1, d)
	w.Submit(&trace.IORequest{Op: trace.OpRead, Size: 4096}, nil)
	eng.Run()
	if s := in.Stats().String(); !strings.Contains(s, "1 injected") {
		t.Fatalf("stats string: %q", s)
	}
}
