// Command mipsx-asm assembles MIPS-X assembly and prints a listing
// (address, encoded word, disassembly), optionally after running the code
// reorganizer so the effect of delay-slot filling is visible.
//
// Usage:
//
//	mipsx-asm prog.s
//	mipsx-asm -reorg -slots 2 -squash optional prog.s
//	mipsx-asm -lint prog.s      # refuse output with interlock hazards
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/reorg"
)

// prof serves the -cpuprofile and -memprofile flags.
var prof = obs.ProfileFlags(flag.CommandLine)

func main() {
	doReorg := flag.Bool("reorg", false, "run the code reorganizer before assembling")
	slots := flag.Int("slots", 2, "branch delay slots (1 or 2)")
	squash := flag.String("squash", "optional", "squash mode: none, always, optional")
	base := flag.Uint("base", 0, "load address (words)")
	doLint := flag.Bool("lint", false, "run the static hazard verifier; fail on errors")
	flag.Parse()
	prof.Start()
	defer prof.Stop()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mipsx-asm [flags] prog.s")
		prof.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mipsx-asm:", err)
		prof.Exit(1)
	}
	stmts, err := asm.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mipsx-asm:", err)
		prof.Exit(1)
	}
	if *doReorg {
		mode := map[string]reorg.SquashMode{
			"none": reorg.NoSquash, "always": reorg.AlwaysSquash, "optional": reorg.SquashOptional,
		}
		m, ok := mode[*squash]
		if !ok {
			fmt.Fprintf(os.Stderr, "mipsx-asm: bad squash mode %q\n", *squash)
			prof.Exit(2)
		}
		stmts = reorg.Reorganize(stmts, reorg.Scheme{Slots: *slots, Squash: m}, nil)
	}
	im, err := asm.Assemble(stmts, uint32(*base))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mipsx-asm:", err)
		prof.Exit(1)
	}
	if *doLint {
		rep := lint.CheckImage(im, lint.Config{Slots: *slots})
		fmt.Fprint(os.Stderr, rep.String())
		if rep.HasErrors() {
			fmt.Fprintln(os.Stderr, "mipsx-asm: program has interlock hazards (see above)")
			prof.Exit(1)
		}
	}
	fmt.Print(asm.Listing(im))
}
