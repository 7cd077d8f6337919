package device

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNVDIMM: "NVDIMM",
		KindSSD:    "SSD",
		KindHDD:    "HDD",
		Kind(7):    "kind(7)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestBaseAccounting(t *testing.T) {
	b := NewBase("dev0", KindSSD, 1000)
	if b.Name() != "dev0" || b.Kind() != KindSSD || b.Capacity() != 1000 {
		t.Fatal("identity wrong")
	}
	if b.Used() != 0 || b.FreeSpaceRatio() != 1 {
		t.Fatal("fresh device not empty")
	}
	b.SetUsed(250)
	if b.Used() != 250 || b.FreeSpaceRatio() != 0.75 {
		t.Fatalf("used=%d free=%v", b.Used(), b.FreeSpaceRatio())
	}
	// Clamping.
	b.SetUsed(-5)
	if b.Used() != 0 {
		t.Fatal("negative used not clamped")
	}
	b.SetUsed(2000)
	if b.Used() != 1000 || b.FreeSpaceRatio() != 0 {
		t.Fatal("over-capacity used not clamped")
	}
}

func TestBaseZeroCapacity(t *testing.T) {
	b := NewBase("z", KindHDD, 0)
	if b.FreeSpaceRatio() != 0 {
		t.Fatal("zero-capacity free ratio should be 0")
	}
}

func TestMetricsObserve(t *testing.T) {
	m := NewMetrics("dev")
	r := &trace.IORequest{Op: trace.OpRead, Size: 4096, Issue: 0, Complete: 100_000}
	m.Observe(r)
	w := &trace.IORequest{Op: trace.OpWrite, Size: 8192, Issue: 0, Complete: 300_000}
	m.Observe(w)
	if m.TotalReads != 1 || m.TotalWrites != 1 || m.TotalBytes != 12288 {
		t.Fatalf("counters: %d/%d/%d", m.TotalReads, m.TotalWrites, m.TotalBytes)
	}
	// 100us and 300us → mean 200us.
	if m.Lifetime.Mean() != 200 {
		t.Fatalf("lifetime mean = %v", m.Lifetime.Mean())
	}
}

func TestMetricsWindowReset(t *testing.T) {
	m := NewMetrics("dev")
	m.Observe(&trace.IORequest{Op: trace.OpRead, Size: 4096, Issue: 0, Complete: 1000})
	m.AddContention(5)
	m.ResetWindow(42)
	if m.LifetimeContentionUS != 5 {
		t.Fatal("lifetime contention lost on window reset")
	}
	if m.TotalReads != 1 || m.Lifetime.N() != 1 {
		t.Fatal("lifetime stats lost on window reset")
	}
}

func TestMetricsString(t *testing.T) {
	m := NewMetrics("mydev")
	s := m.String()
	if !strings.Contains(s, "mydev") {
		t.Fatalf("string missing name: %s", s)
	}
}

// Property: FreeSpaceRatio stays in [0,1] for any SetUsed input.
func TestFreeSpaceRatioBoundsProperty(t *testing.T) {
	b := NewBase("p", KindNVDIMM, 1<<30)
	f := func(used int64) bool {
		b.SetUsed(used)
		r := b.FreeSpaceRatio()
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestLatHistCoversHDDTail observes HDD-range latencies (5–120 ms) and
// checks the registry's lat_hist.p95_us gauge: it must lie within one
// TailHist bucket (1/8 octave) above the nearest-rank p95 of the
// successful requests, and failed requests count only as errors.
func TestLatHistCoversHDDTail(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics("hdd")
	m.RegisterTelemetry(reg, "hdd.")
	rng := rand.New(rand.NewSource(7))
	var lats []float64
	for i := 0; i < 2000; i++ {
		d := 5*sim.Millisecond + sim.Time(rng.Int63n(int64(115*sim.Millisecond)))
		r := &trace.IORequest{ID: uint64(i), Op: trace.OpRead, Size: 4096, Issue: 0, Complete: d}
		if i%250 == 0 {
			r.Err = errors.New("injected")
		} else {
			lats = append(lats, d.Micros())
		}
		m.Observe(r)
	}
	sort.Float64s(lats)
	x := lats[int(math.Ceil(0.95*float64(len(lats))))-1]

	got := make(map[string]float64)
	for _, p := range reg.Snapshot() {
		got[p.Name] = p.Value
	}
	if p95 := got["hdd.lat_hist.p95_us"]; p95 < x || p95 > x*math.Pow(2, 1.0/8) {
		t.Errorf("lat_hist.p95_us = %v, want within [%v, %v]", p95, x, x*math.Pow(2, 1.0/8))
	}
	if got["hdd.errors"] != 8 {
		t.Errorf("errors = %v, want 8", got["hdd.errors"])
	}
}
