package obs

import (
	"io"
	"strconv"
	"unicode/utf8"
)

// Trace track (thread) ids. Pipeline instruction occupancy spans rotate over
// PipeLanes tracks so overlapping in-flight instructions (at most one per
// stage) render side by side in Perfetto; the cache, coprocessor and marker
// tracks carry miss-service spans and squash/exception instants.
const (
	TrackPipeBase = 1 // lanes TrackPipeBase .. TrackPipeBase+PipeLanes-1
	PipeLanes     = 5 // one per pipeline stage's worth of in-flight overlap
	TrackIcache   = TrackPipeBase + PipeLanes
	TrackEcache   = TrackIcache + 1
	TrackCoproc   = TrackEcache + 1
	TrackMarks    = TrackCoproc + 1
)

// ArgKey names an event's one hex-valued argument.
type ArgKey uint8

// The argument keys the simulator emits. ArgNone means the event carries no
// hex argument.
const (
	ArgNone  ArgKey = iota
	ArgAddr         // "addr": the missing word address (cache spans)
	ArgPC           // "pc": the instruction's address (pipe spans)
	ArgCause        // "cause": the PSW cause bits (exception instants)
)

var argKeyNames = [...]string{ArgAddr: "addr", ArgPC: "pc", ArgCause: "cause"}

// Arg is an event's hex-valued argument, serialized as "<key>":"0x<val>".
type Arg struct {
	Key ArgKey
	Val uint32
}

// Hex builds an Arg.
func Hex(key ArgKey, val uint32) Arg { return Arg{Key: key, Val: val} }

// Event is one Chrome trace-event / Perfetto JSON entry; ts/dur are in
// microseconds per the format, which we map 1:1 to simulated cycles.
// appendEvent serializes it in field order with cat, dur, s and args
// omitted when empty, exactly as encoding/json would marshal the same
// record with a map-valued "args" — so trace files are byte-deterministic.
type Event struct {
	Name string
	Cat  string
	Ph   string
	Ts   uint64
	Dur  uint64
	Pid  int
	Tid  int
	S    string // instant scope ("t" = thread)
	Arg  Arg
	// Annulled, when set, is the "annulled" argument of a pipe span whose
	// instruction was squashed or killed rather than retired.
	Annulled string
}

// Tracer buffers structured events for one machine run and serializes them
// as Chrome trace-event JSON (the "JSON Array Format" with a traceEvents
// wrapper), loadable by chrome://tracing and ui.perfetto.dev. It is bounded:
// once MaxEvents is reached further events are counted as dropped rather
// than buffered, so tracing a long run cannot exhaust memory. Methods are
// nil-safe; a nil *Tracer records nothing.
//
// StartStream switches the tracer into streaming mode (see stream.go):
// events are serialized to an io.Writer as they occur instead of buffered,
// the MaxEvents bound no longer applies and Dropped stays zero on
// arbitrarily long runs. The streamed bytes are identical to what a
// buffered WriteJSON of the same events would produce.
type Tracer struct {
	// MaxEvents bounds the buffer; 0 means DefaultMaxEvents.
	MaxEvents int
	// Instrs enables per-instruction pipeline occupancy spans (one span per
	// fetched instruction from IF to WB). Off by default: it is the one
	// event class whose volume scales with instructions rather than misses.
	Instrs bool

	events  []Event
	dropped uint64
	lane    uint64

	// stream, when non-nil, replaces the event buffer with incremental
	// chunked emission (StartStream/CloseStream, stream.go); emitted counts
	// the events handed to it.
	stream  *traceStream
	emitted uint64
}

// DefaultMaxEvents bounds a tracer whose MaxEvents is unset (~1M events).
const DefaultMaxEvents = 1 << 20

func (t *Tracer) add(ev *Event) {
	if t.stream != nil {
		t.stream.emit(ev)
		t.emitted++
		return
	}
	limit := t.MaxEvents
	if limit <= 0 {
		limit = DefaultMaxEvents
	}
	if len(t.events) >= limit {
		t.dropped++
		return
	}
	t.events = append(t.events, *ev)
}

// Span records a complete event (ph "X") of dur cycles starting at ts.
func (t *Tracer) Span(tid int, cat, name string, ts, dur uint64, arg Arg) {
	if t == nil {
		return
	}
	t.add(&Event{Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: dur, Pid: 1, Tid: tid, Arg: arg})
}

// Instant records a thread-scoped instant event (ph "i") at ts.
func (t *Tracer) Instant(tid int, cat, name string, ts uint64, arg Arg) {
	if t == nil {
		return
	}
	t.add(&Event{Name: name, Cat: cat, Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t", Arg: arg})
}

// PipeSpan records one instruction's pipeline occupancy from fetch to
// retirement at pc, rotating across PipeLanes tracks so overlapping
// in-flight instructions do not nest. annulled is empty for an instruction
// that retired, else why it did not.
func (t *Tracer) PipeSpan(name string, start, end uint64, pc uint32, annulled string) {
	if t == nil {
		return
	}
	tid := TrackPipeBase + int(t.lane%PipeLanes)
	t.lane++
	dur := uint64(0)
	if end > start {
		dur = end - start
	}
	t.add(&Event{Name: name, Cat: "pipe", Ph: "X", Ts: start, Dur: dur, Pid: 1, Tid: tid,
		Arg: Hex(ArgPC, pc), Annulled: annulled})
}

// Len reports the number of events recorded: buffered events plus any
// emitted to a stream (the count survives CloseStream).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(t.emitted) + len(t.events)
}

// Dropped reports events rejected after the buffer filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// tracePreamble opens every trace: the Chrome trace-event JSON object header
// and the metadata events naming the process and each track, one per line.
// Events follow, each preceded by ",\n"; traceFooter closes the object.
// Both WriteJSON and the streaming path frame with these, so the two
// serializations are byte-identical.
const (
	tracePreamble = `{"displayTimeUnit":"ns","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"mipsx-sim"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"pipe-0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"pipe-1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"pipe-2"}},
{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"pipe-3"}},
{"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"pipe-4"}},
{"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"icache"}},
{"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"ecache"}},
{"name":"thread_name","ph":"M","pid":1,"tid":8,"args":{"name":"coproc"}},
{"name":"thread_name","ph":"M","pid":1,"tid":9,"args":{"name":"marks"}}`
	traceFooter = "\n]}\n"
)

// WriteJSON serializes the trace in Chrome trace-event JSON object format:
// metadata events naming the process and tracks, then every buffered event
// in record order. Output is deterministic for a deterministic simulation.
// A streaming tracer's events are not buffered here — use CloseStream.
func (t *Tracer) WriteJSON(w io.Writer) error {
	s := newTraceStream(w, DefaultStreamChunk)
	if t != nil {
		for i := range t.events {
			s.emit(&t.events[i])
		}
	}
	return s.close()
}

// appendEvent appends ev's JSON encoding to b: the bytes encoding/json
// produces for the same record, without reflection or allocation.
func appendEvent(b []byte, ev *Event) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, ev.Name)
	if ev.Cat != "" {
		b = append(b, `,"cat":`...)
		b = appendString(b, ev.Cat)
	}
	b = append(b, `,"ph":`...)
	b = appendString(b, ev.Ph)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ev.Ts, 10)
	if ev.Dur != 0 {
		b = append(b, `,"dur":`...)
		b = strconv.AppendUint(b, ev.Dur, 10)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	if ev.S != "" {
		b = append(b, `,"s":`...)
		b = appendString(b, ev.S)
	}
	if ev.Arg.Key != ArgNone || ev.Annulled != "" {
		// Keys in sorted order, as encoding/json writes a map: "addr"
		// sorts before "annulled", "cause" and "pc" after it.
		b = append(b, `,"args":{`...)
		sep := false
		if ev.Arg.Key == ArgAddr {
			b = appendHexArg(b, ev.Arg)
			sep = true
		}
		if ev.Annulled != "" {
			if sep {
				b = append(b, ',')
			}
			b = append(b, `"annulled":`...)
			b = appendString(b, ev.Annulled)
			sep = true
		}
		if ev.Arg.Key > ArgAddr {
			if sep {
				b = append(b, ',')
			}
			b = appendHexArg(b, ev.Arg)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendHexArg appends `"<key>":"0x<val>"`, the %#x rendering.
func appendHexArg(b []byte, a Arg) []byte {
	b = append(b, '"')
	b = append(b, argKeyNames[a.Key]...)
	b = append(b, `":"0x`...)
	b = strconv.AppendUint(b, uint64(a.Val), 16)
	return append(b, '"')
}

// appendString appends s as a JSON string with encoding/json's escaping:
// the HTML-sensitive <, > and & as \u00XX, control bytes by their short
// escape or \u00XX, U+2028 and U+2029 escaped, and each byte of invalid
// UTF-8 replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
