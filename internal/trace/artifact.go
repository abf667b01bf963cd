package trace

// Trace artifacts: compact, exact serializations of synthesized traces so
// they can live in the content-addressed result store next to the cell
// results they feed (DESIGN.md §10). Instruction-address streams are
// overwhelmingly small-stride (straight-line code is pc+1), so a signed
// delta + varint encoding shrinks a multi-hundred-thousand-reference trace
// to roughly one byte per reference — small enough to persist per key,
// exact enough that a decoded trace is word-identical to the generated one
// (the property the golden cold/hot check leans on).

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/isa"
)

// EncodeAddrs serializes an address trace as varint-encoded deltas between
// consecutive references (the first delta is from address 0).
func EncodeAddrs(tr []isa.Word) []byte {
	// Sequential references encode in one byte; allocate for the common case.
	out := make([]byte, 0, len(tr)+len(tr)/4)
	var buf [binary.MaxVarintLen64]byte
	prev := int64(0)
	for _, a := range tr {
		n := binary.PutVarint(buf[:], int64(a)-prev)
		out = append(out, buf[:n]...)
		prev = int64(a)
	}
	return out
}

// DecodeAddrs reverses EncodeAddrs. A short or corrupt stream is an error,
// and every decoded address must fit a Word — an artifact that fails either
// check cannot have been written by EncodeAddrs.
func DecodeAddrs(b []byte) ([]isa.Word, error) {
	out := make([]isa.Word, 0, len(b))
	prev := int64(0)
	for len(b) > 0 {
		d, n := binary.Varint(b)
		if n <= 0 {
			return nil, errors.New("trace: corrupt varint address stream")
		}
		b = b[n:]
		prev += d
		if prev < 0 || prev > int64(^isa.Word(0)) {
			return nil, fmt.Errorf("trace: decoded address %d outside word range", prev)
		}
		out = append(out, isa.Word(prev))
	}
	return out, nil
}

// branch-event flag bits in the encoded stream.
const (
	branchTaken    = 1 << 0
	branchBackward = 1 << 1
)

// EncodeBranches serializes a branch-event stream: per event, the varint
// delta of its PC from the previous event's, then one flag byte.
func EncodeBranches(events []BranchEvent) []byte {
	out := make([]byte, 0, 2*len(events))
	var buf [binary.MaxVarintLen64]byte
	prev := int64(0)
	for _, e := range events {
		n := binary.PutVarint(buf[:], int64(e.PC)-prev)
		out = append(out, buf[:n]...)
		prev = int64(e.PC)
		var f byte
		if e.Taken {
			f |= branchTaken
		}
		if e.Backward {
			f |= branchBackward
		}
		out = append(out, f)
	}
	return out
}

// DecodeBranches reverses EncodeBranches.
func DecodeBranches(b []byte) ([]BranchEvent, error) {
	out := make([]BranchEvent, 0, len(b)/2)
	prev := int64(0)
	for len(b) > 0 {
		d, n := binary.Varint(b)
		if n <= 0 || n >= len(b) {
			return nil, errors.New("trace: corrupt varint branch stream")
		}
		b = b[n:]
		prev += d
		if prev < 0 || prev > int64(^isa.Word(0)) {
			return nil, fmt.Errorf("trace: decoded branch PC %d outside word range", prev)
		}
		f := b[0]
		if f&^(branchTaken|branchBackward) != 0 {
			return nil, fmt.Errorf("trace: unknown branch flag bits %#x", f)
		}
		b = b[1:]
		out = append(out, BranchEvent{PC: isa.Word(prev),
			Taken: f&branchTaken != 0, Backward: f&branchBackward != 0})
	}
	return out, nil
}
