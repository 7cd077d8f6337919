package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSamplerAlignsToIntervalMultiples(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	v := 0.0
	reg.Gauge("g", func() float64 { return v })

	s := NewSampler(eng, reg, 10*sim.Millisecond, nil)
	// Start mid-window: the first tick must land on the next exact
	// multiple, not Start-time + interval.
	eng.At(3*sim.Millisecond, func() {
		v = 1
		s.Start()
	})
	eng.RunFor(45 * sim.Millisecond)
	s.Stop()

	rows := s.Series().rows
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (ticks at 10,20,30,40ms)", len(rows))
	}
	for i, r := range rows {
		want := sim.Time(i+1) * 10 * sim.Millisecond
		if r.At != want {
			t.Errorf("row %d at %v, want %v", i, r.At, want)
		}
		if len(r.Points) != 1 || r.Points[0].Name != "g" || r.Points[0].Value != 1 {
			t.Errorf("row %d points = %v", i, r.Points)
		}
	}
}

func TestSamplerStopHaltsTicks(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	reg.Gauge("g", func() float64 { return 0 })
	s := NewSampler(eng, reg, sim.Millisecond, nil)
	s.Start()
	eng.RunFor(5 * sim.Millisecond)
	s.Stop()
	n := s.Series().Len()
	eng.RunFor(10 * sim.Millisecond)
	if s.Series().Len() != n {
		t.Errorf("rows grew after Stop: %d -> %d", n, s.Series().Len())
	}
}

func TestSamplerPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive interval")
		}
	}()
	NewSampler(sim.NewEngine(), NewRegistry(), 0, nil)
}

func TestSeriesWriteCSV(t *testing.T) {
	var s Series
	s.Append(Row{At: 10 * sim.Millisecond, Points: []Point{{Name: "a", Value: 1}}})
	// Second row gains a metric registered after the first sample; the
	// first row's cell for it must be empty, not zero.
	s.Append(Row{At: 20 * sim.Millisecond, Points: []Point{
		{Name: "a", Value: 2.5}, {Name: "b", Value: 3},
	}})

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := []string{
		"time_ms,a,b",
		"10,1,",
		"20,2.5,3",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d CSV lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}
