package telemetry

import (
	"io"
	"math"
	"strconv"

	"repro/internal/sim"
)

// argKind says which of an Arg's fields holds its value.
type argKind uint8

const (
	kindString argKind = iota
	kindInt
	kindUint
	kindFloat
)

// Arg is one key/value annotation on a trace event, built by S, I, U or
// F. The value is held unboxed, so building args allocates nothing.
type Arg struct {
	Key  string
	kind argKind
	bits uint64 // int64, uint64 or float64 bits
	str  string // string value
}

// S builds a string arg.
func S(k, v string) Arg { return Arg{Key: k, kind: kindString, str: v} }

// I builds an integer arg.
func I(k string, v int64) Arg { return Arg{Key: k, kind: kindInt, bits: uint64(v)} }

// U builds an unsigned integer arg.
func U(k string, v uint64) Arg { return Arg{Key: k, kind: kindUint, bits: v} }

// F builds a float arg.
func F(k string, v float64) Arg { return Arg{Key: k, kind: kindFloat, bits: math.Float64bits(v)} }

// Event is one recorded trace event, as Events returns it. Ph follows the
// Chrome trace_event phase alphabet: 'X' = complete span (TS..TS+Dur),
// 'i' = instant.
type Event struct {
	Track string // logical timeline (rendered as a thread)
	Name  string
	Cat   string
	Ph    byte
	TS    sim.Time
	Dur   sim.Time // complete spans only
	Args  []Arg
}

// record is one recorded event. It holds no pointers: its strings are ids
// into the tracer's string table and its args a run of entries in the
// args table, so the collector never scans the event log.
type record struct {
	ts, dur          sim.Time
	track, name, cat uint32 // string ids
	arg, nargs       uint32 // first entry in the args table, and count
	ph               byte
}

// argEntry is one stored Arg: the key's string id, the kind, and the
// value's 64 bits (a string value's id for kindString).
type argEntry struct {
	key  uint32
	kind argKind
	val  uint64
}

// chunkBits sets the length of the chunks both tables grow by.
const chunkBits = 12

const chunkLen = 1 << chunkBits

// chunked is an append-only table grown a chunk at a time, so growth
// never copies an entry. Both of the tracer's tables hold pointer-free
// entries, so the collector never scans them.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

func (c *chunked[T]) push(v T) {
	if c.n&(chunkLen-1) == 0 {
		c.chunks = append(c.chunks, make([]T, chunkLen))
	}
	c.chunks[c.n>>chunkBits][c.n&(chunkLen-1)] = v
	c.n++
}

func (c *chunked[T]) at(i int) *T { return &c.chunks[i>>chunkBits][i&(chunkLen-1)] }

// Tracer records request-lifecycle spans stamped with simulated time. The
// nil *Tracer is the disabled fast path: every method no-ops, so
// instrumentation sites can hold a nil tracer at zero cost (hot paths
// should still guard arg construction with a nil check).
//
// Events are retained in memory in recording order — which, because the
// simulator is a deterministic single-threaded event loop, is itself
// deterministic for a given seed. Every string an event carries (track,
// name, category, arg keys and string values) is interned once, so a
// recorded event is a fixed-size record with no pointers in it.
type Tracer struct {
	recs   chunked[record]
	args   chunked[argEntry]
	strs   []string // string table: id → string
	ids    map[string]uint32
	tid    []uint32 // string id → thread id, 0 until first used as a track
	tracks []uint32 // string ids of tracks in first-use order; index+1 = tid
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{ids: make(map[string]uint32)}
}

// NumEvents returns the recorded event count (0 for nil).
func (t *Tracer) NumEvents() int {
	if t == nil {
		return 0
	}
	return t.recs.n
}

// Events returns the recorded events in order (nil for a nil tracer),
// rebuilt from the records.
//
//lint:ignore unreachable slo TestTrackerCountsAndInstants, telemetry_test TestTelemetryCoverage
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	evs := make([]Event, t.recs.n)
	for i := range evs {
		r := t.recs.at(i)
		e := Event{Track: t.strs[r.track], Name: t.strs[r.name], Cat: t.strs[r.cat], Ph: r.ph, TS: r.ts, Dur: r.dur}
		for j := r.arg; j < r.arg+r.nargs; j++ {
			a := t.args.at(int(j))
			arg := Arg{Key: t.strs[a.key], kind: a.kind, bits: a.val}
			if a.kind == kindString {
				arg.bits, arg.str = 0, t.strs[a.val]
			}
			e.Args = append(e.Args, arg)
		}
		evs[i] = e
	}
	return evs
}

// intern returns s's id in the string table, adding it on first use.
func (t *Tracer) intern(s string) uint32 {
	id, ok := t.ids[s]
	if !ok {
		id = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.tid = append(t.tid, 0)
		t.ids[s] = id
	}
	return id
}

// useTrack gives string id the next thread id on its first use as a
// track, so thread ids follow first-use order.
func (t *Tracer) useTrack(id uint32) {
	if t.tid[id] == 0 {
		t.tracks = append(t.tracks, id)
		t.tid[id] = uint32(len(t.tracks))
	}
}

// add appends one event, copying its args into the args table.
func (t *Tracer) add(ph byte, track, name, cat string, ts, dur sim.Time, args []Arg) {
	r := record{ts: ts, dur: dur, ph: ph, arg: uint32(t.args.n), nargs: uint32(len(args))}
	r.track = t.intern(track)
	t.useTrack(r.track)
	r.name = t.intern(name)
	r.cat = t.intern(cat)
	for i := range args {
		a := &args[i]
		e := argEntry{key: t.intern(a.Key), kind: a.kind, val: a.bits}
		if a.kind == kindString {
			e.val = uint64(t.intern(a.str))
		}
		t.args.push(e)
	}
	t.recs.push(r)
}

// Complete records a span covering [start, end] on the track. No-op on a
// nil tracer.
func (t *Tracer) Complete(track, name, cat string, start, end sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.add('X', track, name, cat, start, end-start, args)
}

// Instant records a point event at time at on the track. No-op on a nil
// tracer.
func (t *Tracer) Instant(track, name, cat string, at sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.add('i', track, name, cat, at, 0, args)
}

// MergePrefixed appends every event of other to t, prepending prefix to
// each track name. Tracks are interned in merged order, so merging donor
// tracers in a fixed order (job index, never completion order — see
// internal/runpool) yields byte-identical exports run over run. The donor
// is read-only here and must no longer be receiving events; t and other
// may not be the same tracer. No-op when either side is nil.
func (t *Tracer) MergePrefixed(other *Tracer, prefix string) {
	if t == nil || other == nil {
		return
	}
	// Donor string id → t's id (+1, so 0 means not yet mapped), for the
	// string itself and for prefix+string as a track.
	same := make([]uint32, len(other.strs))
	prefixed := make([]uint32, len(other.strs))
	remap := func(m []uint32, id uint32, pre string) uint32 {
		if m[id] == 0 {
			m[id] = t.intern(pre+other.strs[id]) + 1
		}
		return m[id] - 1
	}
	for i, n := 0, other.recs.n; i < n; i++ {
		r := *other.recs.at(i)
		r.track = remap(prefixed, r.track, prefix)
		t.useTrack(r.track)
		r.name = remap(same, r.name, "")
		r.cat = remap(same, r.cat, "")
		first := uint32(t.args.n)
		for j := r.arg; j < r.arg+r.nargs; j++ {
			a := *other.args.at(int(j))
			a.key = remap(same, a.key, "")
			if a.kind == kindString {
				a.val = uint64(remap(same, uint32(a.val), ""))
			}
			t.args.push(a)
		}
		r.arg = first
		t.recs.push(r)
	}
}

// appendUS appends tm as microseconds with nanosecond precision (negative
// times clamp to 0), using integer math so output is byte-deterministic.
func appendUS(b []byte, tm sim.Time) []byte {
	ns := int64(tm)
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	f := ns % 1000
	return append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// exportFlush is the output size an export builds up before each write.
const exportFlush = 64 << 10

// exporter renders records as JSON. It quotes each interned string once
// per export; its methods take and return the output buffer, so the
// buffer lives in the caller's locals, not in a heap object.
type exporter struct {
	t    *Tracer
	w    io.Writer
	q    []byte   // every interned string, quoted, back to back
	qoff []uint32 // string id i is q[qoff[i]:qoff[i+1]]
	err  error    // first write error; later output is dropped
}

func (t *Tracer) newExporter(w io.Writer) *exporter {
	x := &exporter{t: t, w: w, qoff: make([]uint32, 1, len(t.strs)+1)}
	for _, s := range t.strs {
		x.q = strconv.AppendQuote(x.q, s)
		x.qoff = append(x.qoff, uint32(len(x.q)))
	}
	return x
}

// str appends string id's quoted form.
func (x *exporter) str(b []byte, id uint32) []byte {
	return append(b, x.q[x.qoff[id]:x.qoff[id+1]]...)
}

// event appends one record as a Chrome trace_event object, with the track
// name inlined as a leading "track" field when withTrack is set.
func (x *exporter) event(b []byte, r *record, withTrack bool) []byte {
	t := x.t
	if withTrack {
		b = append(b, `{"track":`...)
		b = x.str(b, r.track)
		b = append(b, `,"name":`...)
	} else {
		b = append(b, `{"name":`...)
	}
	b = x.str(b, r.name)
	b = append(b, `,"cat":`...)
	b = x.str(b, r.cat)
	b = append(b, `,"ph":"`...)
	b = append(b, r.ph)
	b = append(b, `","pid":0,"tid":`...)
	b = strconv.AppendUint(b, uint64(t.tid[r.track]), 10)
	b = append(b, `,"ts":`...)
	b = appendUS(b, r.ts)
	if r.ph == 'X' {
		b = append(b, `,"dur":`...)
		b = appendUS(b, r.dur)
	} else {
		b = append(b, `,"s":"t"`...)
	}
	if r.nargs > 0 {
		b = append(b, `,"args":{`...)
		for j := r.arg; j < r.arg+r.nargs; j++ {
			if j > r.arg {
				b = append(b, ',')
			}
			a := t.args.at(int(j))
			b = x.str(b, a.key)
			b = append(b, ':')
			switch a.kind {
			case kindString:
				b = x.str(b, uint32(a.val))
			case kindInt:
				b = strconv.AppendInt(b, int64(a.val), 10)
			case kindUint:
				b = strconv.AppendUint(b, a.val, 10)
			case kindFloat:
				b = strconv.AppendFloat(b, math.Float64frombits(a.val), 'g', -1, 64)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// flush writes b out once it holds exportFlush bytes, or, when final is
// set, whatever it holds, and returns it emptied if it wrote.
func (x *exporter) flush(b []byte, final bool) []byte {
	if len(b) < exportFlush && (!final || len(b) == 0) {
		return b
	}
	if x.err == nil {
		_, x.err = x.w.Write(b)
	}
	return b[:0]
}

// WriteChromeTrace writes the full trace in Chrome trace_event JSON format
// (the "JSON Array Format" wrapped in an object), loadable in
// chrome://tracing and Perfetto. Thread-name metadata events name each
// track; event order is recording order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	x := t.newExporter(w)
	b := make([]byte, 0, exportFlush+4096)
	b = append(b, `{"traceEvents":[`+"\n"...)
	sep := ""
	for i, id := range t.tracks {
		b = append(b, sep...)
		sep = ",\n"
		b = append(b, `{"name":"thread_name","ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"args":{"name":`...)
		b = x.str(b, id)
		b = append(b, `}}`...)
		b = x.flush(b, false)
	}
	for i := 0; i < t.recs.n; i++ {
		b = append(b, sep...)
		sep = ",\n"
		b = x.event(b, t.recs.at(i), false)
		b = x.flush(b, false)
	}
	b = append(b, "\n],"+`"displayTimeUnit":"ms"}`+"\n"...)
	x.flush(b, true)
	return x.err
}

// WriteJSONL writes one event object per line (no wrapper array), a
// stream-friendly sink for external processing. Track names are inlined
// as a "track" field instead of thread metadata.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	x := t.newExporter(w)
	b := make([]byte, 0, exportFlush+4096)
	for i := 0; i < t.recs.n; i++ {
		b = x.event(b, t.recs.at(i), true)
		b = append(b, '\n')
		b = x.flush(b, false)
	}
	x.flush(b, true)
	return x.err
}
