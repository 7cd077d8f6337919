package telemetry

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// Row is one sampled snapshot of a registry.
type Row struct {
	At     sim.Time
	Points []Point
}

// Series accumulates sampler rows. Samplers of systems running on the
// same goroutine may share a Series (rows then append in run order);
// systems running in parallel must each own a private Series, merged
// afterwards with MergePrefixed (the runpool ownership rule).
type Series struct {
	rows []Row
}

// Append adds one row.
func (s *Series) Append(r Row) { s.rows = append(s.rows, r) }

// Len returns the row count.
func (s *Series) Len() int { return len(s.rows) }

// MergePrefixed appends every row of other to s, prepending prefix to
// each point name. Like Tracer.MergePrefixed it is the post-run merge
// step of the parallel-harness ownership rule: donors are complete and
// read-only, and callers merge in job-index order so the resulting CSV
// is byte-identical for any worker count. No-op when either side is nil.
func (s *Series) MergePrefixed(other *Series, prefix string) {
	if s == nil || other == nil {
		return
	}
	for _, r := range other.rows {
		pts := make([]Point, len(r.Points))
		for i, p := range r.Points {
			pts[i] = Point{Name: prefix + p.Name, Value: p.Value}
		}
		s.rows = append(s.rows, Row{At: r.At, Points: pts})
	}
}

// WriteCSV renders the series with a time_ms column plus one column per
// metric name (the sorted union across all rows). Cells for metrics absent
// from a row are left empty, distinguishing "not registered yet" from 0.
func (s *Series) WriteCSV(w io.Writer) error {
	names := make(map[string]bool)
	for _, r := range s.rows {
		for _, p := range r.Points {
			names[p.Name] = true
		}
	}
	cols := make([]string, 0, len(names))
	for n := range names {
		cols = append(cols, n)
	}
	sort.Strings(cols)

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("time_ms"); err != nil {
		return err
	}
	for _, c := range cols {
		if _, err := bw.WriteString("," + c); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	for _, r := range s.rows {
		vals := make(map[string]float64, len(r.Points))
		for _, p := range r.Points {
			vals[p.Name] = p.Value
		}
		ms := float64(r.At) / float64(sim.Millisecond)
		if _, err := bw.WriteString(strconv.FormatFloat(ms, 'g', -1, 64)); err != nil {
			return err
		}
		for _, c := range cols {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
			if v, ok := vals[c]; ok {
				if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Sampler periodically snapshots a registry on the simulation clock. Ticks
// align to exact multiples of the interval in simulated time (the first
// tick is the next multiple after Start), so windows from different runs
// with the same interval line up.
type Sampler struct {
	eng      *sim.Engine
	reg      *Registry
	interval sim.Time
	out      *Series
	running  bool
	timer    *sim.Timer
}

// NewSampler builds a sampler writing rows into out. It panics on a
// non-positive interval.
func NewSampler(eng *sim.Engine, reg *Registry, interval sim.Time, out *Series) *Sampler {
	if interval <= 0 {
		panic("telemetry: non-positive sampling interval")
	}
	if out == nil {
		out = &Series{}
	}
	return &Sampler{eng: eng, reg: reg, interval: interval, out: out}
}

// Series returns the row sink.
func (s *Sampler) Series() *Series { return s.out }

// Start arms a periodic timer whose first tick lands on the next
// multiple of the interval. Restarting a running sampler is a no-op.
func (s *Sampler) Start() {
	if s.running {
		return
	}
	s.running = true
	first := (s.eng.Now()/s.interval + 1) * s.interval
	s.timer = s.eng.EveryAt(first, s.interval, s.tick)
}

// Stop cancels the periodic timer; no further ticks run.
func (s *Sampler) Stop() {
	if !s.running {
		return
	}
	s.running = false
	s.timer.Stop()
}

// tick snapshots the registry; the engine re-arms the periodic timer.
func (s *Sampler) tick() {
	s.out.Append(Row{At: s.eng.Now(), Points: s.reg.Snapshot()})
}
