// Package prof wires the standard runtime/pprof entry points into the
// repository's commands, so a slow or allocation-heavy run can be
// captured with the stock toolchain:
//
//	hvcbench -exp fig1a -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	go tool pprof -top cpu.pb.gz
//
// Profiling changes no simulation behaviour: runs remain byte-identical
// with and without it.
package prof

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds one command's -cpuprofile/-memprofile flag values and,
// once started, their open files.
type Flags struct {
	cpu, mem   string
	cpuF, memF *os.File
}

// Register installs -cpuprofile and -memprofile on the default flag
// set. Call before flag.Parse.
func Register() *Flags {
	p := &Flags{}
	flag.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&p.mem, "memprofile", "", "write an allocation profile to this file on exit")
	return p
}

// Start creates both profile files, so an unwritable path fails before
// the run, and begins CPU profiling when -cpuprofile was given. Call
// after flag.Parse; on error nothing is left behind.
func (p *Flags) Start() error {
	for _, out := range []struct {
		path string
		f    **os.File
	}{{p.cpu, &p.cpuF}, {p.mem, &p.memF}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			p.Discard()
			return err
		}
		*out.f = f
	}
	if p.cpuF != nil {
		if err := pprof.StartCPUProfile(p.cpuF); err != nil {
			p.Discard()
			return err
		}
	}
	return nil
}

// Stop ends CPU profiling and writes the allocation profile. Call once
// on the success path.
func (p *Flags) Stop() error {
	if p.cpuF != nil {
		pprof.StopCPUProfile()
		if err := p.cpuF.Close(); err != nil {
			return err
		}
		p.cpuF = nil
	}
	if p.memF == nil {
		return nil
	}
	runtime.GC() // settle the live set so the profile reflects steady state
	err := pprof.Lookup("allocs").WriteTo(p.memF, 0)
	if cerr := p.memF.Close(); err == nil {
		err = cerr
	}
	p.memF = nil
	return err
}

// Discard stops profiling and removes the profile files: a run that
// fails leaves no profiles behind.
func (p *Flags) Discard() {
	if p.cpuF != nil {
		pprof.StopCPUProfile()
	}
	for _, f := range []*os.File{p.cpuF, p.memF} {
		if f != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}
	p.cpuF, p.memF = nil, nil
}
