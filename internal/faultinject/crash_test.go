package faultinject

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestParseSpecCrashClauses(t *testing.T) {
	spec := mustParse(t, "dev=d:crash@50ms;node=1:crash@10ms..20ms")
	if len(spec.Devices) != 1 || len(spec.Nodes) != 1 {
		t.Fatalf("clauses: %+v", spec)
	}
	df := spec.Devices[0].Faults[0]
	if df.Kind != FaultCrash || df.At != 50*sim.Millisecond {
		t.Fatalf("device crash fault: %+v", df)
	}
	nf := spec.Nodes[0].Faults[0]
	if nf.Kind != FaultCrash || nf.At != 0 ||
		nf.Win.From != 10*sim.Millisecond || nf.Win.To != 20*sim.Millisecond {
		t.Fatalf("node crash fault: %+v", nf)
	}
}

func TestParseSpecCrashRoundTrip(t *testing.T) {
	for _, s := range []string{
		"dev=d:crash@50ms",
		"dev=d:errate=0.5,crash@10ms..20ms",
		"node=0:crash@120ms",
		"dev=a:outage@1ms..2ms;node=0:crash@5ms;node=2:crash@1ms..9ms",
	} {
		spec := mustParse(t, s)
		re := mustParse(t, spec.String())
		if spec.String() != re.String() {
			t.Fatalf("round trip: %q -> %q -> %q", s, spec.String(), re.String())
		}
	}
}

func TestParseSpecCrashErrors(t *testing.T) {
	for _, s := range []string{
		"link=0-1:crash@1ms",                // crash does not apply to links
		"dev=a:crash",                       // crash requires a time
		"dev=a:crash=1@1ms",                 // crash takes no value
		"dev=a:crash@0",                     // crash at t=0 is meaningless
		"dev=a:crash@-5ms",                  // negative instant
		"dev=a:crash@5ms..1ms",              // inverted window
		"dev=a:crash@1ms,crash@2ms",         // duplicate fault kind
		"node=0:errate=0.5",                 // node clauses accept only crash
		"node=0:crash@1ms;node=0:crash@2ms", // duplicate node clause
		"node=x:crash@1ms",                  // non-numeric node
		"node=-1:crash@1ms",                 // negative node
		"node=0",                            // no faults
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", s)
		}
	}
}

// TestCrashScheduleDeterministic demands the resolved crash schedule is a
// pure function of (seed, spec): windows are drawn at arm time from the
// target's own sub-stream, never from run-order-dependent state.
func TestCrashScheduleDeterministic(t *testing.T) {
	schedule := func(seed uint64) []Crash {
		eng := sim.NewEngine()
		in := New(eng, seed, mustParse(t, "dev=d:crash@10ms..90ms;node=1:crash@5ms..50ms"))
		// The resolved schedule in spec order: device-scoped crashes
		// first, then node-scoped.
		var out []Crash
		for _, c := range in.spec.Devices {
			if f := in.devs[c.Device]; f.crashAt > 0 {
				out = append(out, Crash{At: f.crashAt, Node: f.node, Device: c.Device})
			}
		}
		for _, c := range in.spec.Nodes {
			out = append(out, Crash{At: in.nodes[c.Node].crashAt, Node: c.Node})
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("schedule lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0].Device != "d" || a[1].Node != 1 || a[1].Device != "" {
		t.Fatalf("schedule order: %v", a)
	}
	if a[0].At < 10*sim.Millisecond || a[0].At >= 90*sim.Millisecond {
		t.Fatalf("window draw out of range: %v", a[0])
	}
	if c := schedule(43); c[0].At == a[0].At && c[1].At == a[1].At {
		t.Fatalf("different seeds drew the identical schedule: %v", c)
	}
}

// TestCrashFailsInflight verifies the ack-loss model: a request in flight
// across the crash instant completes with ErrCrashed, requests fully before
// or submitted after the crash are untouched, and the device's own metrics
// still record the I/O as executed.
func TestCrashFailsInflight(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "dev=d:crash@1ms"))
	d := newFakeDevice(eng, "d", 100*sim.Microsecond)
	w := in.WrapDeviceOn(0, d)
	in.Arm(nil)
	errs := make(map[sim.Time]error)
	submitAt := func(at sim.Time) {
		eng.At(at, func() {
			r := &trace.IORequest{Op: trace.OpWrite, Size: 4096}
			w.Submit(r, func(c *trace.IORequest) { errs[at] = c.Err })
		})
	}
	submitAt(0)                      // completes at 100us: before the crash
	submitAt(950 * sim.Microsecond)  // in flight at 1ms: ack lost
	submitAt(1500 * sim.Microsecond) // after the crash: healthy
	eng.Run()
	if errs[0] != nil || errs[1500*sim.Microsecond] != nil {
		t.Fatalf("requests outside the crash failed: %v", errs)
	}
	if !errors.Is(errs[950*sim.Microsecond], ErrCrashed) {
		t.Fatalf("in-flight error = %v", errs[950*sim.Microsecond])
	}
	if d.submits != 3 {
		t.Fatalf("device saw %d submits, want 3 (loss is at the ack layer)", d.submits)
	}
	st := in.Stats()
	if st.Devices[0].Crashes != 1 || st.Devices[0].CrashFailures != 1 {
		t.Fatalf("stats: %+v", st.Devices[0])
	}
	if crashes, failed := st.CrashTotals(); crashes != 1 || failed != 1 {
		t.Fatalf("crash totals: %d, %d", crashes, failed)
	}
	if s := st.String(); !strings.Contains(s, "1 crashes, 1 crash-failed requests") {
		t.Fatalf("stats string: %q", s)
	}
}

// TestNodeCrashScopesAllNodeDevices verifies a node= clause wraps every
// device on that node (and only that node), and the crash callback reports
// the node scope.
func TestNodeCrashScopesAllNodeDevices(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "node=0:crash@1ms"))
	onNode := newFakeDevice(eng, "a", 100*sim.Microsecond)
	offNode := newFakeDevice(eng, "b", 100*sim.Microsecond)
	wa := in.WrapDeviceOn(0, onNode)
	wb := in.WrapDeviceOn(1, offNode)
	if wb != device.Device(offNode) {
		t.Fatal("device on an uncrashed node was wrapped")
	}
	var fired []Crash
	in.Arm(func(c Crash) { fired = append(fired, c) })
	var aErr, bErr error
	eng.At(950*sim.Microsecond, func() {
		wa.Submit(&trace.IORequest{Op: trace.OpWrite, Size: 4096}, func(c *trace.IORequest) { aErr = c.Err })
		wb.Submit(&trace.IORequest{Op: trace.OpWrite, Size: 4096}, func(c *trace.IORequest) { bErr = c.Err })
	})
	eng.Run()
	if !errors.Is(aErr, ErrCrashed) {
		t.Fatalf("node-0 device error = %v", aErr)
	}
	if bErr != nil {
		t.Fatalf("node-1 device error = %v", bErr)
	}
	if len(fired) != 1 || fired[0].Node != 0 || fired[0].Device != "" || fired[0].At != sim.Millisecond {
		t.Fatalf("crash callback: %v", fired)
	}
	if st := in.Stats(); st.Nodes[0].Crashes != 1 || st.Nodes[0].CrashFailures != 1 {
		t.Fatalf("node stats: %+v", st.Nodes[0])
	}
}

// TestArmIdempotent: arming twice must not double-fire the schedule.
func TestArmIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "node=0:crash@1ms"))
	fired := 0
	in.Arm(func(Crash) { fired++ })
	in.Arm(func(Crash) { fired++ })
	eng.Run()
	if fired != 1 {
		t.Fatalf("crash fired %d times, want 1", fired)
	}
}

func TestMaxCrashNode(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 7, mustParse(t, "node=0:crash@1ms;node=3:crash@2ms"))
	if in.MaxCrashNode() != 3 {
		t.Fatalf("MaxCrashNode = %d, want 3", in.MaxCrashNode())
	}
	in2 := New(eng, 7, mustParse(t, "dev=d:crash@1ms"))
	if in2.MaxCrashNode() != -1 {
		t.Fatalf("MaxCrashNode = %d, want -1", in2.MaxCrashNode())
	}
}

// TestStatsStringCrashGating: crash-free specs must render the exact
// pre-crash-model census (older golden digests depend on it).
func TestStatsStringCrashGating(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, 1, mustParse(t, "dev=d:errate=1"))
	if s := in.Stats().String(); strings.Contains(s, "crash") {
		t.Fatalf("crash-free stats mention crashes: %q", s)
	}
	in2 := New(eng, 1, mustParse(t, "dev=d:crash@1ms"))
	if s := in2.Stats().String(); strings.Contains(s, "crash") {
		t.Fatalf("unfired crash mentioned in stats: %q", s)
	}
}
