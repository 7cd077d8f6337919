package telemetry

import (
	"sort"
	"testing"
)

func TestCounterIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x.hits")
	a.Inc()
	a.Add(2)
	b := r.Counter("x.hits")
	if a != b {
		t.Fatal("re-registering a counter must return the same instance")
	}
	if b.Value() != 3 {
		t.Fatalf("counter value = %d, want 3", b.Value())
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestKindCollisionPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"counter-then-gauge", func(r *Registry) {
			r.Counter("n")
			r.Gauge("n", func() float64 { return 0 })
		}},
		{"gauge-then-counter", func(r *Registry) {
			r.Gauge("n", func() float64 { return 0 })
			r.Counter("n")
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

// TestSnapshotSortedAndExpanded: Snapshot expands every instrument to
// exactly one point and returns the points sorted by name.
func TestSnapshotSortedAndExpanded(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(7)
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
		t.Fatalf("snapshot has %d points, want %d (one per instrument)", len(pts), len(want))
	}
	for _, p := range pts {
		if want[p.Name] != p.Value {
			t.Errorf("%s = %v, want %v", p.Name, p.Value, want[p.Name])
		}
	}
}
