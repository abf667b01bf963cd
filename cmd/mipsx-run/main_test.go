package main

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// MIPSX_RUN_MAIN set, it runs main on its own arguments instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("MIPSX_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its exit status.
func runMain(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIPSX_RUN_MAIN=1")
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// TestProfileFlags runs the command with -cpuprofile and -memprofile on a
// run that returns from main and on one that exits through a failure, and
// requires both profiles to be complete pprof files (gzip streams that read
// to their end) either way. A profile that cannot be created is a usage
// error.
func TestProfileFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"returns", []string{"-bench", "fib"}, 0},
		{"exits", []string{"-bench", "fib", "-max-cycles", "100"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
			if code := runMain(t, append([]string{"-cpuprofile", cpu, "-memprofile", mem}, tc.args...)...); code != tc.code {
				t.Fatalf("exit status %d, want %d", code, tc.code)
			}
			for _, path := range []string{cpu, mem} {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				zr, err := gzip.NewReader(f)
				if err == nil {
					_, err = io.Copy(io.Discard, zr)
				}
				f.Close()
				if err != nil {
					t.Fatalf("%s is not a complete profile: %v", filepath.Base(path), err)
				}
			}
		})
	}
	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	if code := runMain(t, "-cpuprofile", bad, "-bench", "fib"); code != 2 {
		t.Fatalf("unwritable -cpuprofile: exit status %d, want 2", code)
	}
}
