package telemetry

import (
	"bufio"
	"io"
	"math"
	"strconv"

	"repro/internal/sim"
)

// refTracer is the tracer that the pointer-free one replaced: each event
// is a struct of strings with its args boxed in interface{} values, and
// export formats every timestamp through a fresh string. It is slow and
// allocates, but it is obviously faithful to the trace format;
// TestTracerMatchesReference and FuzzTracerVsRef drive both side by side
// and compare the exported bytes.
type refTracer struct {
	events   []refEvent
	trackIDs map[string]int
	tracks   []string // insertion order; index+1 = tid
}

// refArg is one key/value annotation with its value boxed.
type refArg struct {
	Key string
	Val interface{}
}

// refEvent is one recorded trace event.
type refEvent struct {
	Track string
	Name  string
	Cat   string
	Ph    byte
	TS    sim.Time
	Dur   sim.Time
	Args  []refArg
}

func newRefTracer() *refTracer {
	return &refTracer{trackIDs: make(map[string]int)}
}

// refArgs converts typed args to the reference's boxed form.
func refArgs(args []Arg) []refArg {
	var out []refArg
	for _, a := range args {
		var v interface{}
		switch a.kind {
		case kindString:
			v = a.str
		case kindInt:
			v = int64(a.bits)
		case kindUint:
			v = a.bits
		case kindFloat:
			v = math.Float64frombits(a.bits)
		}
		out = append(out, refArg{Key: a.Key, Val: v})
	}
	return out
}

func (t *refTracer) NumEvents() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

func (t *refTracer) tid(track string) int {
	id, ok := t.trackIDs[track]
	if !ok {
		t.tracks = append(t.tracks, track)
		id = len(t.tracks)
		t.trackIDs[track] = id
	}
	return id
}

func (t *refTracer) Complete(track, name, cat string, start, end sim.Time, args ...refArg) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.tid(track)
	t.events = append(t.events, refEvent{
		Track: track, Name: name, Cat: cat, Ph: 'X', TS: start, Dur: end - start, Args: args,
	})
}

func (t *refTracer) Instant(track, name, cat string, at sim.Time, args ...refArg) {
	if t == nil {
		return
	}
	t.tid(track)
	t.events = append(t.events, refEvent{Track: track, Name: name, Cat: cat, Ph: 'i', TS: at, Args: args})
}

func (t *refTracer) MergePrefixed(other *refTracer, prefix string) {
	if t == nil || other == nil {
		return
	}
	for _, e := range other.events {
		e.Track = prefix + e.Track
		t.tid(e.Track)
		t.events = append(t.events, e)
	}
}

func refUSString(tm sim.Time) string {
	ns := int64(tm)
	if ns < 0 {
		ns = 0
	}
	return strconv.FormatInt(ns/1000, 10) + "." +
		string([]byte{byte('0' + ns/100%10), byte('0' + ns/10%10), byte('0' + ns%10)})
}

func refAppendArgVal(b []byte, v interface{}) []byte {
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

func (t *refTracer) appendEventJSON(b []byte, e refEvent) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, e.Name)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, e.Cat)
	b = append(b, `,"ph":"`...)
	b = append(b, e.Ph)
	b = append(b, `","pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(t.trackIDs[e.Track]), 10)
	b = append(b, `,"ts":`...)
	b = append(b, refUSString(e.TS)...)
	if e.Ph == 'X' {
		b = append(b, `,"dur":`...)
		b = append(b, refUSString(e.Dur)...)
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
			b = refAppendArgVal(b, a.Val)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func (t *refTracer) WriteChromeTrace(w io.Writer) error {
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

func (t *refTracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, e := range t.events {
		buf = t.appendEventJSON(buf[:0], e)
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
