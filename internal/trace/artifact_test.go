package trace

import (
	"bytes"
	"testing"

	"repro/internal/isa"
)

func TestAddrCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   []isa.Word
	}{
		{"empty", nil},
		{"single", []isa.Word{42}},
		{"sequential", []isa.Word{7, 8, 9, 10, 11}},
		{"jumps", []isa.Word{0, 1 << 24, 3, ^isa.Word(0), 0, 5}},
		{"synthesized", NewSynthesizer(PascalSynth(0)).Generate(50_000)},
		{"interleaved", mustInterleave(t, [][]isa.Word{
			NewSynthesizer(PascalSynth(8 * 1024)).Generate(20_000),
			NewSynthesizer(LispSynth(8 * 1024)).Generate(20_000),
		}, 1000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := EncodeAddrs(tc.tr)
			got, err := DecodeAddrs(enc)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.tr) {
				t.Fatalf("decoded %d refs, want %d", len(got), len(tc.tr))
			}
			for i := range got {
				if got[i] != tc.tr[i] {
					t.Fatalf("ref %d: decoded %d, want %d", i, got[i], tc.tr[i])
				}
			}
		})
	}
}

func TestAddrCodecIsCompact(t *testing.T) {
	tr := NewSynthesizer(PascalSynth(0)).Generate(100_000)
	enc := EncodeAddrs(tr)
	// Mostly pc+1 strides: ~1 byte per reference, far below the 4 bytes of a
	// raw word dump.
	if len(enc) > 2*len(tr) {
		t.Fatalf("encoded %d refs to %d bytes; delta/varint should be ~1 byte/ref", len(tr), len(enc))
	}
}

func TestAddrCodecRejectsCorruptStreams(t *testing.T) {
	// A truncated varint (all continuation bits) must not decode.
	if _, err := DecodeAddrs([]byte{0x80, 0x80}); err == nil {
		t.Fatal("truncated varint stream decoded without error")
	}
	// An 11-byte varint overflows 64 bits.
	if _, err := DecodeAddrs(bytes.Repeat([]byte{0x80}, 10)); err == nil {
		t.Fatal("overflowing varint decoded without error")
	}
	// A negative cumulative address cannot come from EncodeAddrs.
	if _, err := DecodeAddrs([]byte{0x09}); err == nil { // delta -5 from 0
		t.Fatal("negative address decoded without error")
	}
}

func TestBranchCodecRoundTrip(t *testing.T) {
	events := []BranchEvent{
		{PC: 100, Taken: true, Backward: true},
		{PC: 4, Taken: false, Backward: false},
		{PC: 1 << 20, Taken: true, Backward: false},
		{PC: 1 << 20, Taken: false, Backward: true},
	}
	got, err := DecodeBranches(EncodeBranches(events))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: decoded %+v, want %+v", i, got[i], events[i])
		}
	}
	if _, err := DecodeBranches([]byte{0x02}); err == nil {
		t.Fatal("branch stream missing its flag byte decoded without error")
	}
	if _, err := DecodeBranches([]byte{0x02, 0xFF}); err == nil {
		t.Fatal("unknown flag bits decoded without error")
	}
}

// TestSynthesizerDeterministic pins the property the content-addressed
// trace artifacts rely on: a trace is a pure function of its config and
// reference count.
func TestSynthesizerDeterministic(t *testing.T) {
	for _, cfg := range []SynthConfig{PascalSynth(0), LispSynth(0), FPSynth(0)} {
		a := NewSynthesizer(cfg).Generate(50_000)
		b := NewSynthesizer(cfg).Generate(50_000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at ref %d: %d vs %d", cfg.Seed, i, a[i], b[i])
			}
		}
	}
}

// TestSynthesizerDegenerateConfigs is the regression test for the
// zero-function layout bug: a tiny CodeWords used to make every candidate
// function fail the minimum-size check, leaving the function table empty
// and Generate/pickCallee panicking in rand.Intn(0).
func TestSynthesizerDegenerateConfigs(t *testing.T) {
	for _, cw := range []int{0, 1, 2, 3, 4, 5} {
		cfg := SynthConfig{
			CodeWords: cw, Funcs: 8,
			AvgRun: 3, AvgLoopIters: 2, CallProb: 0.5,
			HotFuncs: 2, HotBias: 0.5, MaxDepth: 4, Seed: 7,
		}
		tr := NewSynthesizer(cfg).Generate(200) // must not panic
		if len(tr) != 200 {
			t.Fatalf("CodeWords=%d: short trace: %d", cw, len(tr))
		}
		for _, a := range tr {
			if int(a) >= minFuncWords && int(a) >= cw {
				t.Fatalf("CodeWords=%d: address %d beyond clamped footprint", cw, a)
			}
		}
	}
}

// TestInterleaveUnequalAndEmpty covers the multiprogramming merge with
// member traces of different lengths and an empty member.
func TestInterleaveUnequalAndEmpty(t *testing.T) {
	a := []isa.Word{1, 2, 3, 4, 5, 6, 7}
	b := []isa.Word{10, 20}
	var c []isa.Word // a program with no references at all
	out := mustInterleave(t, [][]isa.Word{a, b, c}, 3)
	if len(out) != len(a)+len(b) {
		t.Fatalf("interleave produced %d refs, want %d", len(out), len(a)+len(b))
	}
	// Each member's references appear in order, offset into its own space.
	const stride = 1 << 24
	var gotA, gotB []isa.Word
	for _, w := range out {
		switch {
		case w < stride:
			gotA = append(gotA, w)
		case w < 2*stride:
			gotB = append(gotB, w-stride)
		default:
			t.Fatalf("reference %#x attributed to the empty member", w)
		}
	}
	if len(gotA) != len(a) || len(gotB) != len(b) {
		t.Fatalf("member splits %d/%d, want %d/%d", len(gotA), len(gotB), len(a), len(b))
	}
	for i := range gotA {
		if gotA[i] != a[i] {
			t.Fatalf("member A out of order at %d", i)
		}
	}
	for i := range gotB {
		if gotB[i] != b[i] {
			t.Fatalf("member B out of order at %d", i)
		}
	}
	// The quantum bounds each turn: the first three refs are A's first
	// quantum, then B's whole (shorter) trace.
	if out[0] != 1 || out[1] != 2 || out[2] != 3 || out[3] != 10+stride {
		t.Fatalf("quantum structure broken: %v", out[:4])
	}

	// All-empty input terminates with an empty trace.
	if got := mustInterleave(t, [][]isa.Word{nil, nil}, 5); len(got) != 0 {
		t.Fatalf("all-empty interleave produced %d refs", len(got))
	}
}

func mustInterleave(t *testing.T, traces [][]isa.Word, q int) []isa.Word {
	t.Helper()
	out, err := Interleave(traces, q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
