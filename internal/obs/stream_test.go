package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// record plays the same event sequence into a tracer whether it buffers or
// streams, so the two serializations can be compared byte for byte.
func record(tr *Tracer, events int) {
	for i := 0; i < events; i++ {
		switch i % 3 {
		case 0:
			tr.Span(TrackIcache, "cache", "imiss", uint64(i*4), 14, Hex(ArgAddr, uint32(i*32)))
		case 1:
			tr.Instant(TrackMarks, "ctl", "squash", uint64(i*4+1), Hex(ArgPC, uint32(i)))
		default:
			tr.PipeSpan("add", uint64(i*4), uint64(i*4+5), uint32(i), "")
		}
	}
}

func TestStreamedTraceByteIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1000} {
		buffered := &Tracer{}
		record(buffered, n)
		var want bytes.Buffer
		if err := buffered.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}

		streamed := &Tracer{}
		var got bytes.Buffer
		if err := streamed.StartStream(&got, 16); err != nil {
			t.Fatal(err)
		}
		if !streamed.Streaming() {
			t.Fatal("Streaming() false after StartStream")
		}
		record(streamed, n)
		if streamed.Len() != n {
			t.Fatalf("n=%d: streaming Len = %d", n, streamed.Len())
		}
		if streamed.Dropped() != 0 {
			t.Fatalf("n=%d: streaming dropped %d events", n, streamed.Dropped())
		}
		if err := streamed.CloseStream(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: streamed trace differs from buffered WriteJSON\nstreamed:\n%s\nbuffered:\n%s",
				n, got.String(), want.String())
		}
		if !json.Valid(got.Bytes()) {
			t.Fatalf("n=%d: streamed trace is not valid JSON", n)
		}
	}
}

func TestStreamNeverDropsPastMaxEvents(t *testing.T) {
	tr := &Tracer{MaxEvents: 4}
	var out bytes.Buffer
	if err := tr.StartStream(&out, 0); err != nil {
		t.Fatal(err)
	}
	record(tr, 100)
	if tr.Dropped() != 0 {
		t.Fatalf("streaming tracer dropped %d events despite MaxEvents", tr.Dropped())
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("stream not parseable: %v", err)
	}
	if got := len(doc.TraceEvents) - len(refMetas()); got != 100 {
		t.Fatalf("stream holds %d events, want 100", got)
	}
}

func TestStreamLineFraming(t *testing.T) {
	// The streaming contract: every line between the header and footer is a
	// self-contained JSON object once a trailing comma is stripped, so a
	// live reader can parse an unclosed stream line by line.
	tr := &Tracer{}
	var out bytes.Buffer
	if err := tr.StartStream(&out, 1); err != nil {
		t.Fatal(err)
	}
	record(tr, 9)
	// Parse the live (unclosed) bytes: drop line 1 (header); the newest
	// event is complete but still waits for its newline.
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if lines[0] != `{"displayTimeUnit":"ns","traceEvents":[` {
		t.Fatalf("stream does not open with the trace header: %q", lines[0])
	}
	for i, line := range lines[1:] {
		line = strings.TrimSuffix(line, ",")
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("live line %d is not self-contained JSON: %v\n%q", i+2, err, line)
		}
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), traceFooter) {
		t.Fatalf("closed stream lacks footer: ...%q", out.String()[len(out.String())-8:])
	}
}

func TestStartStreamRejectsMisuse(t *testing.T) {
	tr := &Tracer{}
	var a, b bytes.Buffer
	if err := tr.StartStream(&a, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartStream(&b, 0); err == nil {
		t.Fatal("second StartStream must fail")
	}
	if err := tr.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CloseStream(); err == nil {
		t.Fatal("CloseStream on a non-streaming tracer must fail")
	}

	late := &Tracer{}
	late.Span(TrackMarks, "c", "n", 0, 1, Arg{})
	if err := late.StartStream(&a, 0); err == nil {
		t.Fatal("StartStream after buffered events must fail")
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.budget -= len(p)
	return len(p), nil
}

func TestStreamSurfacesWriteErrors(t *testing.T) {
	tr := &Tracer{}
	// Budget covers the header and metadata preamble; the failure lands in
	// the middle of the event stream.
	if err := tr.StartStream(&failWriter{budget: 2048}, 1); err != nil {
		t.Fatal(err)
	}
	record(tr, 50)
	if err := tr.CloseStream(); err == nil {
		t.Fatal("CloseStream must report the stream's write error")
	}
}
