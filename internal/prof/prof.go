// Package prof gives a command -cpuprofile and -memprofile flags: a CPU
// profile of the whole run and a heap profile taken at its end, both in the
// format go tool pprof reads. Both are off unless named.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths a command line named.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap profile, taken when the run ends, to this file (go tool pprof)")
	return f
}

// Start begins the CPU profile, if one was named, and returns stop, which
// ends it and writes the heap profile, if one was named. The caller runs
// stop once, after its work and before it exits, and calls Start first
// thing, because without -memprofile it switches the runtime's allocation
// sampling off. A binary that links runtime/pprof samples allocations by
// default and one that does not never samples, so unused flags must not
// cost the sampler's memory.
func (f *Flags) Start() (stop func() error, err error) {
	if f.mem == "" {
		runtime.MemProfileRate = 0
	}
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if f.mem == "" {
			return nil
		}
		return writeHeap(f.mem)
	}, nil
}

func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC() // the profile's in-use figures are as of the last collection
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return nil
}
