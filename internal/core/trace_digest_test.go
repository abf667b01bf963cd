package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// pinnedTraceDigests are the sha256 digests of complete streamed
// instruction traces. The benchmark entries are copied from the
// perfbench module's golden trace_digests; trapProgram's was recorded with
// the reflective encoding/json encoder before the tracer's own encoder
// replaced it. Buffered and streamed output share one encoder, so comparing
// them with each other cannot catch a change to the bytes both produce;
// these constants can.
var pinnedTraceDigests = map[string]string{
	"bubblesort": "ba7f225b0fc72f0a8ddc3b98b4a701f101a04f0548fe4fd95a76909717118b51",
	"fpdot":      "c5003ed34ef204ee996a0945035e96e42a74a86d328184ac5ec0c776d9543de7",
	"quicksort":  "8d7a68475485ed0fb66e7141309d841330df2a99d0adebff21d74691d057da85",
	"trap":       "a3c7e0fa258a6433c315b6fb595f69bae55bed6b5a1d76b1f660d2b4d6ad217a",
}

// trapProgram raises one trap and returns from it, so the pinned stream
// carries an exception instant and exception-annulled pipe spans.
const trapProgram = `
handler:
	movs r20, pc0
	movs r21, pc1
	movs r22, pc2
	addi r23, r23, 1
	addi r20, r20, 1
	addi r21, r21, 1
	addi r22, r22, 1
	mots pc0, r20
	mots pc1, r21
	mots pc2, r22
	nop
	nop
	jpc
	jpc
	jpcrs
main:	addi r1, r0, 1
	trap 0
	addi r1, r1, 10
	addi r1, r1, 100
	putw r1
	halt
`

// streamDigest runs m to halt with a streaming instruction tracer hashing
// every byte, the way the repository benchmark's trace-stream workload does.
func streamDigest(t *testing.T, load func(*core.Machine) error) string {
	t.Helper()
	cfg, err := spec.Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	m := core.New(cfg, nil)
	sink := obs.NewMachineSink()
	sink.Tracer = &obs.Tracer{Instrs: true}
	h := sha256.New()
	if err := sink.Tracer.StartStream(h, 0); err != nil {
		t.Fatal(err)
	}
	m.Observe(sink)
	if err := load(m); err != nil {
		t.Fatal(err)
	}
	for {
		_, err := m.Run(2_000_000)
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrNotHalted) {
			t.Fatal(err)
		}
	}
	if err := sink.Tracer.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyAttribution(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamedTraceDigestsPinned pins the streamed trace bytes of three
// benchmarks (fpdot covers coprocessor spans) and of a trapping program
// (the exception instant) to recorded digests.
func TestStreamedTraceDigestsPinned(t *testing.T) {
	benches := map[string]tinyc.Benchmark{}
	for _, b := range tinyc.Benchmarks() {
		benches[b.Name] = b
	}
	for name, want := range pinnedTraceDigests {
		t.Run(name, func(t *testing.T) {
			got := streamDigest(t, func(m *core.Machine) error {
				if name == "trap" {
					return m.LoadSource(trapProgram)
				}
				im, err := tinyc.Build(benches[name].Source, reorg.Default(), nil)
				if err != nil {
					return err
				}
				m.Load(im)
				return nil
			})
			if got != want {
				t.Errorf("stream digest %s, pinned %s", got, want)
			}
		})
	}
}
