package main

// Spans recorded from the benchmark's own code around each call into the
// program (workload → setup/pass/probes → experiment call, scenario cell,
// or build/load/run/close). They are kept in memory and written out with
// the layer document at the end of a traced run. An untraced run uses a
// disabled recorder, whose begin is a no-op.

import "time"

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the child's start.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// SelfNS is the span's duration minus the time its children cover.
	SelfNS int64 `json:"self_ns"`
}

type spanRec struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newSpanRec(on bool) *spanRec { return &spanRec{on: on, t0: time.Now()} }

func noop() {}

// begin opens a span under the innermost open one and returns its end.
func (r *spanRec) begin(name string) func() {
	if !r.on {
		return noop
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return func() {
		r.spans[id].EndNS = time.Since(r.t0).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// finish returns the spans with their self times filled in.
func (r *spanRec) finish() []span {
	out := append([]span(nil), r.spans...)
	for i := range out {
		out[i].SelfNS = out[i].EndNS - out[i].StartNS
	}
	for _, s := range out {
		if s.Parent >= 0 {
			out[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
	return out
}
