package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
)

// The reference encoder: the trace record shapes and the reflective
// encoding/json serialization the tracer used before it encoded events
// itself. appendEvent, tracePreamble and WriteJSON must reproduce these
// bytes exactly.

// refEvent is the former Event: one map of string arguments.
type refEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// refMeta is a metadata event naming the process or a track.
type refMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

func refMetas() []refMeta {
	metas := []refMeta{{Name: "process_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]string{"name": "mipsx-sim"}}}
	for lane := 0; lane < PipeLanes; lane++ {
		metas = append(metas, refMeta{Name: "thread_name", Ph: "M", Pid: 1, Tid: TrackPipeBase + lane,
			Args: map[string]string{"name": fmt.Sprintf("pipe-%d", lane)}})
	}
	for _, tr := range []struct {
		tid  int
		name string
	}{{TrackIcache, "icache"}, {TrackEcache, "ecache"}, {TrackCoproc, "coproc"}, {TrackMarks, "marks"}} {
		metas = append(metas, refMeta{Name: "thread_name", Ph: "M", Pid: 1, Tid: tr.tid,
			Args: map[string]string{"name": tr.name}})
	}
	return metas
}

// toRef is ev in the former shape, its arguments Sprintf'd into a map.
func toRef(ev *Event) refEvent {
	r := refEvent{Name: ev.Name, Cat: ev.Cat, Ph: ev.Ph, Ts: ev.Ts, Dur: ev.Dur, Pid: ev.Pid, Tid: ev.Tid, S: ev.S}
	keys := map[ArgKey]string{ArgAddr: "addr", ArgPC: "pc", ArgCause: "cause"}
	if ev.Arg.Key != ArgNone {
		r.Args = map[string]string{keys[ev.Arg.Key]: fmt.Sprintf("%#x", ev.Arg.Val)}
	}
	if ev.Annulled != "" {
		if r.Args == nil {
			r.Args = map[string]string{}
		}
		r.Args["annulled"] = ev.Annulled
	}
	return r
}

// refWriteJSON is the former WriteJSON over events.
func refWriteJSON(w io.Writer, events []Event) error {
	io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	var items []any
	for _, m := range refMetas() {
		items = append(items, m)
	}
	for i := range events {
		items = append(items, toRef(&events[i]))
	}
	for i, it := range items {
		b, err := json.Marshal(it)
		if err != nil {
			return err
		}
		if i < len(items)-1 {
			b = append(b, ',')
		}
		w.Write(append(b, '\n'))
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// emittedKinds holds one event of every kind the simulator emits, plus
// events in the metadata events' name/phase/track shapes.
var emittedKinds = []Event{
	{Name: "addi r1, r1, 10", Cat: "pipe", Ph: "X", Ts: 22, Dur: 5, Pid: 1, Tid: 3, Arg: Hex(ArgPC, 0x11)},
	{Name: "add r2, r3, r4", Cat: "pipe", Ph: "X", Ts: 40, Dur: 5, Pid: 1, Tid: 4, Arg: Hex(ArgPC, 0x20), Annulled: "squash"},
	{Name: "trap 0", Cat: "pipe", Ph: "X", Ts: 21, Dur: 17, Pid: 1, Tid: 2, Arg: Hex(ArgPC, 0x10), Annulled: "exception"},
	{Name: "ld r4, 0(r3)", Cat: "pipe", Ph: "X", Ts: 7, Pid: 1, Tid: 5, Arg: Hex(ArgPC, 0)},
	{Name: "imiss", Cat: "cache", Ph: "X", Ts: 0, Dur: 14, Pid: 1, Tid: TrackIcache, Arg: Hex(ArgAddr, 0x40)},
	{Name: "dmiss-read", Cat: "cache", Ph: "X", Ts: 31, Dur: 6, Pid: 1, Tid: TrackEcache, Arg: Hex(ArgAddr, 0x1000)},
	{Name: "dmiss-write", Cat: "cache", Ph: "X", Ts: 35, Dur: 6, Pid: 1, Tid: TrackEcache, Arg: Hex(ArgAddr, 0xffffffff)},
	{Name: "flush", Cat: "cache", Ph: "X", Ts: 90, Dur: 128, Pid: 1, Tid: TrackEcache},
	{Name: "busy-wait", Cat: "coproc", Ph: "X", Ts: 60, Dur: 3, Pid: 1, Tid: TrackCoproc},
	{Name: "branch-squash", Cat: "ctl", Ph: "i", Ts: 44, Pid: 1, Tid: TrackMarks, S: "t"},
	{Name: "exception", Cat: "ctl", Ph: "i", Ts: 26, Pid: 1, Tid: TrackMarks, S: "t", Arg: Hex(ArgCause, 0x80)},
	{Name: "process_name", Ph: "M", Pid: 1, Tid: 0},
	{Name: "thread_name", Ph: "M", Pid: 1, Tid: TrackPipeBase},
	{Name: "thread_name", Ph: "M", Pid: 1, Tid: TrackMarks},
}

// awkwardEvents exercise encoding/json's string escaping.
var awkwardEvents = []Event{
	{Name: `<a href="x">&amp;\</a>`, Cat: "<&>", Ph: "X", Ts: 1, Dur: 1, Pid: 1, Tid: 1, Arg: Hex(ArgPC, 1), Annulled: `"\`},
	{Name: "ctl\x00\x01\b\f\n\r\t\x1f\x7f", Ph: "i", Pid: -1, Tid: -7, S: "\x1b", Annulled: "a\tb"},
	{Name: "bad\xffutf8\xc3(\xe2\x82", Cat: "\x80", Ph: "X", Arg: Hex(ArgCause, 0)},
	{Name: "line\u2028para\u2029end", Cat: "é中🙂\ufffd", Ph: "X", Ts: 1 << 63, Dur: ^uint64(0), Pid: 1 << 30, Tid: 1, Arg: Hex(ArgAddr, 7), Annulled: "\u2028"},
}

func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	events := append(append([]Event(nil), emittedKinds...), awkwardEvents...)
	for n := 0; n <= len(events); n++ {
		var want, got bytes.Buffer
		if err := refWriteJSON(&want, events[:n]); err != nil {
			t.Fatal(err)
		}
		if err := (&Tracer{events: events[:n]}).WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d events: WriteJSON differs from the encoding/json reference\n got %s\nwant %s",
				n, got.String(), want.String())
		}
	}
}

// FuzzTraceEventEncoding checks appendEvent against encoding/json on the
// former event shape for arbitrary field values.
func FuzzTraceEventEncoding(f *testing.F) {
	for _, set := range [][]Event{emittedKinds, awkwardEvents} {
		for _, ev := range set {
			f.Add(ev.Name, ev.Cat, ev.Ph, ev.S, ev.Annulled, ev.Ts, ev.Dur, ev.Pid, ev.Tid, uint8(ev.Arg.Key), ev.Arg.Val)
		}
	}
	f.Fuzz(func(t *testing.T, name, cat, ph, s, annulled string, ts, dur uint64, pid, tid int, key uint8, val uint32) {
		ev := Event{Name: name, Cat: cat, Ph: ph, Ts: ts, Dur: dur, Pid: pid, Tid: tid, S: s,
			Arg: Hex(ArgKey(key%4), val), Annulled: annulled}
		want, err := json.Marshal(toRef(&ev))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendEvent(nil, &ev); !bytes.Equal(got, want) {
			t.Fatalf("event %+v:\n got %s\nwant %s", ev, got, want)
		}
	})
}
