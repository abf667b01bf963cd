package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// MIPSX_BENCH_MAIN set, it runs main on its own arguments instead of the
// tests, so exit codes can be checked without building a second binary.
func TestMain(m *testing.M) {
	if os.Getenv("MIPSX_BENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsStrayArgumentsAndRemovedFlags: a positional argument (which
// would otherwise be ignored, running every experiment) and the deleted
// fast-tier flags are usage errors, exit 2, before any simulation starts.
func TestRejectsStrayArgumentsAndRemovedFlags(t *testing.T) {
	for _, arg := range []string{"E1", "-fast", "-fast-bench", "-check-attr"} {
		cmd := exec.Command(os.Args[0], arg)
		cmd.Env = append(os.Environ(), "MIPSX_BENCH_MAIN=1")
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("mipsx-bench %s: %v, want exit status 2", arg, err)
		}
	}
}
