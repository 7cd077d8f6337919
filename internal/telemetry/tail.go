package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// Tail-latency tracking (DESIGN.md §12). A TailTracker owns one TailHist
// per key — per store and per VMDK — over a fixed log-spaced bucket
// layout, flushes window percentiles into a TailSeries on a sim-time
// cadence, and resets the window histograms. Everything is stamped with
// simulated time only and is deterministic for a given seed; merged
// series follow the TelemetryScope fork-tree rules so -jobs N output is
// byte-identical to -jobs 1.

// tailBucketsPerOctave and tailOctaves fix the canonical TailHist layout:
// 8 log-spaced buckets per factor-of-two starting at 1µs, spanning 24
// octaves (1µs .. ~16.8s). Every TailHist shares this layout.
const (
	tailBucketsPerOctave = 8
	tailOctaves          = 24
	tailBuckets          = tailBucketsPerOctave * tailOctaves
)

// tailBounds[i] is the exclusive upper bound, in microseconds, of bucket
// i: 2^((i+1)/8). Computed once at init; index lookups binary-search this
// table rather than calling math.Log2 per observation, so bucket edges
// are consistent no matter how the libm rounds.
var tailBounds = func() [tailBuckets]float64 {
	var b [tailBuckets]float64
	for i := range b {
		b[i] = math.Pow(2, float64(i+1)/tailBucketsPerOctave)
	}
	return b
}()

// TailHist is a latency histogram over the canonical log-spaced bucket
// layout. Observations are in microseconds; values below 1µs land in
// bucket 0 and values beyond the top bound clamp into the last bucket
// (never dropped). The exact maximum is tracked separately so Max is not
// quantized. The zero value is ready to use.
type TailHist struct {
	counts [tailBuckets]uint32
	total  uint64
	max    float64
}

// Observe records one latency observation in microseconds. Negative or
// NaN values are treated as 0.
func (h *TailHist) Observe(us float64) {
	if math.IsNaN(us) || us < 0 {
		us = 0
	}
	i := sort.SearchFloat64s(tailBounds[:], us)
	// SearchFloat64s finds the first bound >= us; a value exactly on a
	// bound belongs to the next bucket (bounds are exclusive uppers).
	if i < tailBuckets && tailBounds[i] == us {
		i++
	}
	if i >= tailBuckets {
		i = tailBuckets - 1
	}
	h.counts[i]++
	h.total++
	if us > h.max {
		h.max = us
	}
}

// Count returns the number of observations recorded.
func (h *TailHist) Count() uint64 { return h.total }

// Max returns the exact maximum observation in microseconds (0 if empty).
func (h *TailHist) Max() float64 { return h.max }

// Quantile returns the q-th quantile (q in [0,1]) in microseconds: the
// upper bound of the bucket containing the ceil(q·count)-th observation,
// or the exact tracked max where that bound exceeds it, so the result is
// a deterministic conservative (upper) estimate that never exceeds Max.
// q = 1 and the top bucket report the exact max. An empty histogram
// returns exactly 0; q outside [0,1] or NaN clamps.
func (h *TailHist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum >= rank {
			if i == tailBuckets-1 {
				return h.max
			}
			return math.Min(tailBounds[i], h.max)
		}
	}
	return h.max
}

// Reset clears the histogram for the next window.
func (h *TailHist) Reset() { *h = TailHist{} }

// TailRow is one flushed window for one key: the deterministic tail
// quantiles of every observation the key saw in the window ending at At.
type TailRow struct {
	// At is the window end, in simulated time.
	At sim.Time
	// Key names the tracked entity: a store name or "vmdk<id>".
	Key string
	// Count is the number of observations in the window.
	Count uint64
	// P50US, P95US, P99US, and MaxUS are the window tail quantiles in
	// microseconds.
	P50US, P95US, P99US, MaxUS float64
}

// TailSeries accumulates flushed TailRows in window order for CSV export.
// Like Series, it is single-owner and merged only through the fork-tree
// rules.
type TailSeries struct {
	rows []TailRow
}

// NewTailSeries returns an empty series.
func NewTailSeries() *TailSeries { return &TailSeries{} }

// Append adds one row.
func (s *TailSeries) Append(r TailRow) { s.rows = append(s.rows, r) }

// Len returns the number of rows (0 for nil).
func (s *TailSeries) Len() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// MergePrefixed appends every row of other to s, prepending prefix to
// each key — the same fork-tree merge rule as Tracer.MergePrefixed, so
// merging donors in job-index order yields byte-identical exports. No-op
// when either side is nil.
func (s *TailSeries) MergePrefixed(other *TailSeries, prefix string) {
	if s == nil || other == nil {
		return
	}
	for _, r := range other.rows {
		r.Key = prefix + r.Key
		s.rows = append(s.rows, r)
	}
}

// WriteCSV writes the series as CSV: a header, then one row per flushed
// window in append order. Times are integer sim milliseconds with three
// decimals; quantiles are microseconds rendered with strconv 'g'
// formatting, so the output is byte-deterministic.
func (s *TailSeries) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("time_ms,key,count,p50_us,p95_us,p99_us,max_us\n"); err != nil {
		return err
	}
	if s != nil {
		var buf []byte
		for _, r := range s.rows {
			buf = buf[:0]
			buf = appendTimeMS(buf, r.At)
			buf = append(buf, ',')
			buf = append(buf, r.Key...)
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, r.Count, 10)
			for _, v := range [4]float64{r.P50US, r.P95US, r.P99US, r.MaxUS} {
				buf = append(buf, ',')
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			}
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// appendTimeMS renders a sim.Time as milliseconds with microsecond
// precision using integer math (byte-deterministic).
func appendTimeMS(b []byte, t sim.Time) []byte {
	ns := int64(t)
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1e6, 10)
	us := ns / 1000 % 1000
	return append(b, '.', byte('0'+us/100), byte('0'+us/10%10), byte('0'+us%10))
}

// TailTracker windows TailHists per key on a sim-time cadence. The nil
// *TailTracker is the disabled fast path: Observe and ObserveVMDK no-op,
// so instrumentation sites hold a nil tracker at the cost of one nil
// check. A tracker is single-owner (one per System) like every telemetry
// sink; merged output goes through TailSeries.MergePrefixed.
type TailTracker struct {
	eng      *sim.Engine
	interval sim.Time
	out      *TailSeries

	cur      map[string]*TailHist // current window, reset each flush
	life     map[string]*TailHist // lifetime, for end-of-run summaries
	vmdkKeys map[int]string       // interned "vmdk<id>" strings
	running  bool
	timer    *sim.Timer

	// OnWindow, when set, observes every flushed window (keys in sorted
	// order) before the window histograms reset — the hook the SLO
	// tracker consumes.
	OnWindow func(at sim.Time, rows []TailRow)
}

// NewTailTracker builds a tracker flushing windows of the given interval
// into out. It panics on a non-positive interval; out may be nil to
// track lifetime tails without exporting windows.
func NewTailTracker(eng *sim.Engine, interval sim.Time, out *TailSeries) *TailTracker {
	if interval <= 0 {
		panic(fmt.Sprintf("telemetry: tail interval %v must be positive", interval))
	}
	return &TailTracker{
		eng:      eng,
		interval: interval,
		out:      out,
		cur:      make(map[string]*TailHist),
		life:     make(map[string]*TailHist),
		vmdkKeys: make(map[int]string),
	}
}

// Observe records one latency observation in microseconds under key. The
// key is typically a store name. No-op on a nil tracker.
func (t *TailTracker) Observe(key string, us float64) {
	if t == nil {
		return
	}
	t.hist(t.cur, key).Observe(us)
	t.hist(t.life, key).Observe(us)
}

// ObserveVMDK records one latency observation in microseconds under the
// interned key "vmdk<id>". No-op on a nil tracker.
func (t *TailTracker) ObserveVMDK(id int, us float64) {
	if t == nil {
		return
	}
	k, ok := t.vmdkKeys[id]
	if !ok {
		k = "vmdk" + strconv.Itoa(id)
		t.vmdkKeys[id] = k
	}
	t.Observe(k, us)
}

// hist returns (creating on first use) the histogram for key in m.
func (t *TailTracker) hist(m map[string]*TailHist, key string) *TailHist {
	h, ok := m[key]
	if !ok {
		h = &TailHist{}
		m[key] = h
	}
	return h
}

// Start arms a periodic flush timer. Flushes align to interval
// multiples like the gauge Sampler, so windows land at identical
// instants whatever the start time. No-op if nil or running.
func (t *TailTracker) Start() {
	if t == nil || t.running {
		return
	}
	t.running = true
	first := (t.eng.Now()/t.interval + 1) * t.interval
	t.timer = t.eng.EveryAt(first, t.interval, func() { t.flush(t.eng.Now()) })
}

// Stop cancels the flush timer and flushes the current (partial)
// window.
func (t *TailTracker) Stop() {
	if t == nil || !t.running {
		return
	}
	t.running = false
	t.timer.Stop()
	t.flush(t.eng.Now())
}

// flush emits one TailRow per key with observations this window (keys in
// sorted order — the map-iteration determinism rule), hands the rows to
// OnWindow, and resets the window histograms.
func (t *TailTracker) flush(at sim.Time) {
	keys := make([]string, 0, len(t.cur))
	for k := range t.cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]TailRow, 0, len(keys))
	for _, k := range keys {
		h := t.cur[k]
		if h.Count() == 0 {
			continue
		}
		rows = append(rows, TailRow{
			At: at, Key: k, Count: h.Count(),
			P50US: h.Quantile(0.50), P95US: h.Quantile(0.95),
			P99US: h.Quantile(0.99), MaxUS: h.Max(),
		})
		h.Reset()
	}
	if t.out != nil {
		for _, r := range rows {
			t.out.Append(r)
		}
	}
	if t.OnWindow != nil && len(rows) > 0 {
		t.OnWindow(at, rows)
	}
}

// TailSummary is the lifetime tail of one key, for end-of-run reports.
type TailSummary struct {
	// Count is the number of observations over the whole run.
	Count uint64
	// P50US, P95US, P99US, and MaxUS are lifetime quantiles in
	// microseconds.
	P50US, P95US, P99US, MaxUS float64
}

// Keys returns the tracked keys in sorted order (nil for a nil tracker).
func (t *TailTracker) Keys() []string {
	if t == nil {
		return nil
	}
	keys := make([]string, 0, len(t.life))
	for k := range t.life {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Summary returns the lifetime tail for key (the zero summary if the key
// was never observed or the tracker is nil).
func (t *TailTracker) Summary(key string) TailSummary {
	if t == nil {
		return TailSummary{}
	}
	h, ok := t.life[key]
	if !ok {
		return TailSummary{}
	}
	return TailSummary{
		Count: h.Count(),
		P50US: h.Quantile(0.50), P95US: h.Quantile(0.95),
		P99US: h.Quantile(0.99), MaxUS: h.Max(),
	}
}
