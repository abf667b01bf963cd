// Fast-tier installation: gating, lint clearance and program compilation
// for the pipeline's compiled basic-block tier (internal/pipeline/fast.go).
package core

import (
	"repro/internal/asm"
	"repro/internal/lint"
	"repro/internal/pipeline"
)

// fastKey keys an image's compiled fast program (asm.Image.Derive) by the
// branch-slot count the lint clearance was proved under. Compiled ops are
// pure and slot-independent, but clearance is per (image, slots).
type fastKey struct{ slots int }

// fastProgram returns the image's lint-cleared compiled program for slots,
// or nil when the image fails clearance. The result is memoized on the
// image, so the experiment engine's many cells over one built image pay the
// static analysis once, and an image that is dropped (every scenario run
// and every fuzz input builds fresh ones) takes its program with it.
func fastProgram(im *asm.Image, slots int) *pipeline.FastProgram {
	return im.Derive(fastKey{slots}, func() any {
		if lint.CheckImage(im, lint.Config{Slots: slots}).HasErrors() {
			return (*pipeline.FastProgram)(nil)
		}
		return pipeline.CompileFast(im.Base, im.Words)
	}).(*pipeline.FastProgram)
}

// installFastTier binds a compiled fast program to the CPU when the
// configuration asks for it and the loaded image qualifies, and joins it to
// the code watch shared by every machine over this memory — the host and
// all its scenario contexts (NewContext) — so a store from any of them, on
// either tier, revalidates the code it rewrote. The tier is refused
// entirely for:
//
//   - multiprocessor nodes (NewShared over a common memory, so no code
//     watch, or with a bus arbiter): an arbiter makes data-access timing
//     depend on the global cycle interleave, which only lockstep Stepping
//     preserves, and nodes over one memory step concurrently, which the
//     one-at-a-time code watch does not cover;
//   - images with hazard-lint errors: the tier's block model leans on the
//     same delay-slot discipline the lint rules prove, so a lint-flagged
//     image runs cycle-accurate only — the "falls back at any lint-flagged
//     hazard window" contract, enforced at its coarsest granularity.
//
// Everything finer-grained (icache misses, exceptions, squashing branches,
// interrupts, coprocessor traffic) is handled dynamically by the tier's own
// entry and exit seams.
func (m *Machine) installFastTier(im *asm.Image) {
	w := m.CPU.Watch
	if m.CPU.Fast != nil {
		w.Leave(m.CPU.Fast)
		m.CPU.Fast = nil
	}
	if !m.Cfg.FastTier || m.Bus.Arb != nil || w == nil || im == nil || len(im.Words) == 0 {
		return
	}
	if t := fastProgram(im, m.Cfg.Pipeline.BranchSlots).Bind(m.Mem); t != nil {
		w.Join(t)
		m.CPU.Fast = t
	}
}
