package trace

import (
	"repro/internal/sim"
)

// SeqWindow is the adjacency tolerance for sequential-access detection:
// a request whose offset starts within SeqWindow bytes after the previous
// same-op request's end is counted as sequential (paper §4.2: "If two
// requests access the adjacent addresses, these two requests are
// sequential").
const SeqWindow = 8 * 1024

// Analyzer observes a request stream and computes the WC vector over the
// observed window, plus measured-performance (MP) statistics. It is the
// sampling front end of the performance model (§4).
type Analyzer struct {
	reads, writes   int
	randReads       int
	randWrites      int
	sizeSum         int64
	prevReadEnd     int64
	prevWriteEnd    int64
	haveRead        bool
	haveWrite       bool
	outstanding     int
	oioTimeProduct  float64 // integral of outstanding over time
	lastEventAt     sim.Time
	firstEventAt    sim.Time
	haveEvent       bool
	latencySum      sim.Time
	latencyCount    int
	freeSpaceSample float64
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// Reset clears the window.
func (a *Analyzer) Reset() { *a = Analyzer{} }

// SeedOutstanding primes the outstanding-request count with requests that
// were issued before this window began but are still in flight, so the
// OIO time integral stays correct across window resets.
func (a *Analyzer) SeedOutstanding(n int) {
	if n > 0 {
		a.outstanding = n
	}
}

// observeTime advances the OIO time integral to t.
func (a *Analyzer) observeTime(t sim.Time) {
	if !a.haveEvent {
		a.haveEvent = true
		a.firstEventAt = t
		a.lastEventAt = t
		return
	}
	if t > a.lastEventAt {
		a.oioTimeProduct += float64(a.outstanding) * float64(t-a.lastEventAt)
		a.lastEventAt = t
	}
}

// Issue records a request submission at time t.
func (a *Analyzer) Issue(r *IORequest, t sim.Time) {
	a.observeTime(t)
	a.outstanding++
	a.sizeSum += r.Size
	if r.Op == OpRead {
		a.reads++
		if a.haveRead {
			if !adjacent(a.prevReadEnd, r.Offset) {
				a.randReads++
			}
		}
		a.prevReadEnd = r.Offset + r.Size
		a.haveRead = true
	} else {
		a.writes++
		if a.haveWrite {
			if !adjacent(a.prevWriteEnd, r.Offset) {
				a.randWrites++
			}
		}
		a.prevWriteEnd = r.Offset + r.Size
		a.haveWrite = true
	}
}

// Complete records a request completion at time t with the observed
// latency.
func (a *Analyzer) Complete(r *IORequest, t sim.Time) {
	a.observeTime(t)
	if a.outstanding > 0 {
		a.outstanding--
	}
	a.latencySum += r.Latency()
	a.latencyCount++
}

// Fail records a failed completion at time t: the request stops occupying
// the device (the OIO integral advances and outstanding drops) but its
// latency is excluded from the measured-performance statistics, which must
// describe successful service only.
func (a *Analyzer) Fail(r *IORequest, t sim.Time) {
	a.observeTime(t)
	if a.outstanding > 0 {
		a.outstanding--
	}
}

// SetFreeSpaceRatio records the device's free-space fraction for the
// window (sampled, not derived from the stream).
func (a *Analyzer) SetFreeSpaceRatio(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	a.freeSpaceSample = f
}

// Requests returns the number of issued requests in the window.
func (a *Analyzer) Requests() int { return a.reads + a.writes }

// MeanLatency returns the mean completion latency observed in the window
// (the measured performance MP of Eq. 3). Zero if nothing completed.
func (a *Analyzer) MeanLatency() sim.Time {
	if a.latencyCount == 0 {
		return 0
	}
	return a.latencySum / sim.Time(a.latencyCount)
}

// WC computes the workload-characteristic vector for the window.
func (a *Analyzer) WC() WC {
	total := a.reads + a.writes
	var w WC
	w.FreeSpaceRatio = a.freeSpaceSample
	if total == 0 {
		return w
	}
	w.WriteRatio = float64(a.writes) / float64(total)
	w.IOSize = float64(a.sizeSum) / float64(total)
	if a.reads > 1 {
		w.ReadRand = float64(a.randReads) / float64(a.reads-1)
	}
	if a.writes > 1 {
		w.WriteRand = float64(a.randWrites) / float64(a.writes-1)
	}
	if span := a.lastEventAt - a.firstEventAt; span > 0 {
		w.OIOs = a.oioTimeProduct / float64(span)
	} else {
		w.OIOs = float64(a.outstanding)
	}
	return w
}

func adjacent(prevEnd, nextStart int64) bool {
	d := nextStart - prevEnd
	if d < 0 {
		d = -d
	}
	return d <= SeqWindow
}

// MemIntensity counts memory accesses (reads and writes alike), the
// signal Fig. 4 correlates with NVDIMM latency.
type MemIntensity struct {
	n uint64
}

// Add records n memory accesses at once — a burst of n cachelines counts
// as n accesses. Non-positive n records nothing.
func (m *MemIntensity) Add(n int) {
	if n > 0 {
		m.n += uint64(n)
	}
}

// Total returns the access count (the paper's "memory intensity").
func (m *MemIntensity) Total() uint64 { return m.n }
