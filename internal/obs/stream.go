package obs

// Chunked trace streaming: the Tracer's writer mode. A streaming tracer
// serializes each event as it is recorded and hands it to an io.Writer in
// framed chunks instead of buffering up to MaxEvents, so a trace of an
// arbitrarily long run costs O(chunk) memory and drops nothing.
//
// On-disk stream format (documented in DESIGN.md §15): the bytes are exactly
// the Chrome trace-event JSON object WriteJSON produces —
//
//	{"displayTimeUnit":"ns","traceEvents":[
//	<metadata event>,
//	<event>,
//	...
//	<event>
//	]}
//
// — one complete JSON event per line, comma-terminated except the last,
// closed by CloseStream. The line framing is the streaming contract: every
// line except the open/close braces is a self-contained JSON object, so a
// reader tailing a live (still-unclosed) stream parses it line by line,
// stripping the trailing comma. WriteJSON is the same emitter run over the
// buffered events, so the two cannot frame differently; the bytes both
// produce are pinned by recorded digests (internal/core) and by the
// differential fuzz target against encoding/json (FuzzTraceEventEncoding).
//
// The last element must not carry a comma, and which event is last is
// unknown until CloseStream, so each event is written with the separator
// that precedes it (",\n") and CloseStream ends the final line. A live
// reader therefore sees the newest event as a complete JSON object whose
// newline arrives with the next event, just as a held-back event would.

import (
	"bufio"
	"fmt"
	"io"
)

// DefaultStreamChunk is the flush interval in events for a streaming tracer
// whose chunk size is unset: the underlying writer is flushed every chunk so
// a live reader (mipsx-trace -follow, a pipe) sees progress while the
// simulation runs, without paying a syscall per event.
const DefaultStreamChunk = 512

// traceStream is the incremental emitter behind a Tracer's streaming mode
// and behind WriteJSON. Write errors stick in the bufio.Writer: once one
// occurs every later write is a no-op and close reports it.
type traceStream struct {
	w     *bufio.Writer
	buf   []byte // one encoded event, reused
	chunk int    // events per flush frame
	n     int    // events since the last flush
}

// newTraceStream writes the header and track metadata to w and returns an
// emitter for the events that follow.
func newTraceStream(w io.Writer, chunk int) *traceStream {
	s := &traceStream{w: bufio.NewWriter(w), chunk: chunk}
	s.w.WriteString(tracePreamble)
	return s
}

// emit serializes one event into the stream, flushing at chunk boundaries.
func (s *traceStream) emit(ev *Event) {
	s.buf = appendEvent(append(s.buf[:0], ',', '\n'), ev)
	s.w.Write(s.buf)
	if s.n++; s.n >= s.chunk {
		s.n = 0
		s.w.Flush()
	}
}

// close writes the closing frame, flushes, and returns the first write
// error the stream hit.
func (s *traceStream) close() error {
	s.w.WriteString(traceFooter)
	return s.w.Flush()
}

// StartStream switches the tracer into streaming mode: every subsequent
// event is serialized to w as it is recorded, in chunks of chunkEvents
// events per flush (0 means DefaultStreamChunk). It must be called before
// any event is recorded; the header and track metadata are written
// immediately. The caller must call CloseStream when the run ends to end
// the final event's line and write the closing frame.
func (t *Tracer) StartStream(w io.Writer, chunkEvents int) error {
	if t.stream != nil {
		return fmt.Errorf("obs: tracer is already streaming")
	}
	if len(t.events) > 0 {
		return fmt.Errorf("obs: StartStream after %d events were buffered; start the stream before the run", len(t.events))
	}
	if chunkEvents <= 0 {
		chunkEvents = DefaultStreamChunk
	}
	s := newTraceStream(w, chunkEvents)
	if err := s.w.Flush(); err != nil {
		return err
	}
	t.stream = s
	return nil
}

// Streaming reports whether the tracer is in streaming mode.
func (t *Tracer) Streaming() bool { return t != nil && t.stream != nil }

// CloseStream ends the final event's line, closes the JSON frame and
// flushes. It returns the first error the stream hit (a partial file is
// detectable: it lacks the closing frame). The tracer leaves streaming
// mode; call it only after the run has halted — events recorded afterwards
// fall back to the bounded buffer.
func (t *Tracer) CloseStream() error {
	s := t.stream
	if s == nil {
		return fmt.Errorf("obs: tracer is not streaming")
	}
	t.stream = nil
	return s.close()
}
