package telemetry

import (
	"bufio"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Arg is one key/value annotation on a trace event. Values may be string,
// bool, int, int64, uint64, float64, or sim.Time; anything else is
// rendered via its String method or rejected at export time.
type Arg struct {
	Key string
	Val interface{}
}

// S builds a string arg.
func S(k, v string) Arg { return Arg{Key: k, Val: v} }

// I builds an integer arg.
func I(k string, v int64) Arg { return Arg{Key: k, Val: v} }

// U builds an unsigned integer arg.
func U(k string, v uint64) Arg { return Arg{Key: k, Val: v} }

// F builds a float arg.
func F(k string, v float64) Arg { return Arg{Key: k, Val: v} }

// Event is one recorded trace event. Ph follows the Chrome trace_event
// phase alphabet: 'X' = complete span (TS..TS+Dur), 'i' = instant.
type Event struct {
	Track string // logical timeline (rendered as a thread)
	Name  string
	Cat   string
	Ph    byte
	TS    sim.Time
	Dur   sim.Time // complete spans only
	Args  []Arg
}

// Tracer records request-lifecycle spans stamped with simulated time. The
// nil *Tracer is the disabled fast path: every method no-ops, so
// instrumentation sites can hold a nil tracer at zero cost (hot paths
// should still guard arg construction with a nil check).
//
// Events are retained in memory in recording order — which, because the
// simulator is a deterministic single-threaded event loop, is itself
// deterministic for a given seed.
type Tracer struct {
	events   []Event
	trackIDs map[string]int
	tracks   []string // insertion order; index+1 = tid
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{trackIDs: make(map[string]int)}
}

// NumEvents returns the recorded event count (0 for nil).
func (t *Tracer) NumEvents() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the recorded events in order (nil for a nil tracer).
//
//lint:ignore unreachable slo TestTrackerCountsAndInstants, telemetry_test TestTelemetryCoverage
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// tid interns a track name, assigning thread ids in first-use order.
func (t *Tracer) tid(track string) int {
	id, ok := t.trackIDs[track]
	if !ok {
		t.tracks = append(t.tracks, track)
		id = len(t.tracks)
		t.trackIDs[track] = id
	}
	return id
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
	t.tid(track)
	t.events = append(t.events, Event{
		Track: track, Name: name, Cat: cat, Ph: 'X', TS: start, Dur: end - start, Args: args,
	})
}

// Instant records a point event at time at on the track. No-op on a nil
// tracer.
func (t *Tracer) Instant(track, name, cat string, at sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.tid(track)
	t.events = append(t.events, Event{Track: track, Name: name, Cat: cat, Ph: 'i', TS: at, Args: args})
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
	for _, e := range other.events {
		e.Track = prefix + e.Track
		t.tid(e.Track)
		t.events = append(t.events, e)
	}
}

// usString renders a sim.Time as microseconds with nanosecond precision,
// using integer math so output is byte-deterministic.
func usString(tm sim.Time) string {
	ns := int64(tm)
	if ns < 0 {
		ns = 0
	}
	return strconv.FormatInt(ns/1000, 10) + "." +
		string([]byte{byte('0' + ns/100%10), byte('0' + ns/10%10), byte('0' + ns%10)})
}

// appendArgVal renders one arg value as JSON.
func appendArgVal(b []byte, v interface{}) []byte {
	switch x := v.(type) {
	case string:
		return strconv.AppendQuote(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case sim.Time:
		return strconv.AppendQuote(b, x.String())
	case interface{ String() string }:
		return strconv.AppendQuote(b, x.String())
	default:
		return strconv.AppendQuote(b, "?")
	}
}

// appendEventJSON renders one event as a Chrome trace_event object.
func (t *Tracer) appendEventJSON(b []byte, e Event) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, e.Name)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, e.Cat)
	b = append(b, `,"ph":"`...)
	b = append(b, e.Ph)
	b = append(b, `","pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(t.trackIDs[e.Track]), 10)
	b = append(b, `,"ts":`...)
	b = append(b, usString(e.TS)...)
	if e.Ph == 'X' {
		b = append(b, `,"dur":`...)
		b = append(b, usString(e.Dur)...)
	}
	if e.Ph == 'i' {
		b = append(b, `,"s":"t"`...)
	}
	if len(e.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, a.Key)
			b = append(b, ':')
			b = appendArgVal(b, a.Val)
		}
		b = append(b, '}')
	}
	return append(b, '}')
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
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[` + "\n"); err != nil {
		return err
	}
	var buf []byte
	first := true
	emit := func(line []byte) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.Write(line)
		return err
	}
	for i, track := range t.tracks {
		buf = buf[:0]
		buf = append(buf, `{"name":"thread_name","ph":"M","pid":0,"tid":`...)
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, `,"args":{"name":`...)
		buf = strconv.AppendQuote(buf, track)
		buf = append(buf, `}}`...)
		if err := emit(buf); err != nil {
			return err
		}
	}
	for _, e := range t.events {
		buf = t.appendEventJSON(buf[:0], e)
		if err := emit(buf); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]," + `"displayTimeUnit":"ms"}` + "\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteJSONL writes one event object per line (no wrapper array), a
// stream-friendly sink for external processing. Track names are inlined
// as a "track" field instead of thread metadata.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, e := range t.events {
		buf = t.appendEventJSON(buf[:0], e)
		// Inject the track name after the opening brace for self-contained
		// lines: {"track":"...",<rest>.
		line := append([]byte(`{"track":`), strconv.AppendQuote(nil, e.Track)...)
		line = append(line, ',')
		line = append(line, buf[1:]...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
