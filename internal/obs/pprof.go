package obs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// Profiler is the -cpuprofile/-memprofile pair every command carries: a
// runtime CPU profile of the whole run and a heap profile written as the
// command exits, both in the pprof format `go tool pprof` reads. Commands
// exit through Exit (or return from main after a deferred Stop) so the
// profiles are complete whatever the exit status.
type Profiler struct {
	cpuPath, memPath string
	cpu              *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *Profiler {
	p := &Profiler{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&p.memPath, "memprofile", "", "write a heap profile to `file` on exit")
	return p
}

// Start begins the requested profiles. Like a bad flag, a profile file that
// cannot be created ends the command with exit status 2.
func (p *Profiler) Start() {
	if p.cpuPath == "" {
		return
	}
	f, err := os.Create(p.cpuPath)
	if err == nil {
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
		}
	}
	if err != nil {
		report(err)
		os.Exit(2)
	}
	p.cpu = f
}

// Stop ends the CPU profile and writes the heap profile, reporting any
// failure on standard error.
func (p *Profiler) Stop() {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			report(err)
		}
		p.cpu = nil
	}
	if p.memPath != "" {
		if err := writeHeapProfile(p.memPath); err != nil {
			report(err)
		}
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile reports live objects as of the last GC
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Exit stops the profiles and exits with code: the os.Exit of a profiled
// command.
func (p *Profiler) Exit(code int) {
	p.Stop()
	os.Exit(code)
}

func report(err error) {
	fmt.Fprintf(os.Stderr, "%s: profile: %v\n", filepath.Base(os.Args[0]), err)
}
