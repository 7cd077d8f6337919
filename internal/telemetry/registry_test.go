package telemetry

import (
	"sort"
	"testing"
)

// TestKindCollisionPanics: registering a name twice panics, whatever the
// gauges read. A "counter" here is a gauge over a count the subsystem
// maintains, the way every production count is exported.
func TestKindCollisionPanics(t *testing.T) {
	var hits uint64
	count := func() float64 { return float64(hits) }
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"counter-then-gauge", func(r *Registry) {
			r.Gauge("n", count)
			r.Gauge("n", func() float64 { return 0 })
		}},
		{"gauge-then-counter", func(r *Registry) {
			r.Gauge("n", func() float64 { return 0 })
			r.Gauge("n", count)
		}},
		{"gauge-then-gauge", func(r *Registry) {
			r.Gauge("n", func() float64 { return 0 })
			r.Gauge("n", func() float64 { return 1 })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on name collision")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// TestSnapshotSortedAndExpanded: Snapshot expands every gauge to exactly
// one point and returns the points sorted by name.
func TestSnapshotSortedAndExpanded(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z.count", func() float64 { return 7 })
	r.Gauge("m.lat.p95_us", func() float64 { return 20 })
	r.Gauge("a.util", func() float64 { return 0.5 })

	pts := r.Snapshot()
	names := make([]string, len(pts))
	for i, p := range pts {
		names[i] = p.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("snapshot not sorted: %v", names)
	}
	want := map[string]float64{
		"a.util":       0.5,
		"m.lat.p95_us": 20,
		"z.count":      7,
	}
	if len(pts) != len(want) {
		t.Fatalf("snapshot has %d points, want %d (one per gauge)", len(pts), len(want))
	}
	for _, p := range pts {
		if want[p.Name] != p.Value {
			t.Errorf("%s = %v, want %v", p.Name, p.Value, want[p.Name])
		}
	}
}
