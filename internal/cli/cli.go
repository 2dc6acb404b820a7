// Package cli is the exit contract every command under cmd/ shares,
// so a command fails early, loudly and without partial output:
//
//   - a usage error exits 2 before any output file exists (Usage);
//   - every output file — reports, traces, CSV/JSON bundles, and the
//     -cpuprofile/-memprofile profiles — is created before the run, so
//     an unwritable path exits 1 before simulating (Create, Telemetry,
//     Start);
//   - a failed run exits 1 and removes the regular files it created,
//     leaving FIFOs, devices and other non-regular paths the user named
//     in place (Fail);
//   - a good run writes the report, flushes the trace, writes the
//     allocation profile and closes every file (Close).
//
// Profiling changes no simulation behaviour: runs remain byte-identical
// with and without it, and a profile reads with the stock toolchain:
//
//	hvcbench -exp fig1a -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	go tool pprof -top cpu.pb.gz
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hvc/internal/telemetry"
)

// Outputs owns one command's exits and output files.
type Outputs struct {
	name     string
	files    []*os.File // every file created, in creation order
	cpu, mem string     // -cpuprofile/-memprofile, once Profiles ran
	cpuOn    bool       // CPU profiling is running
	memF     *os.File
	tracer   *telemetry.Tracer
	report   *telemetry.Report
	reportF  *os.File
}

// New returns the outputs of the command name, which prefixes every
// error it reports.
func New(name string) *Outputs { return &Outputs{name: name} }

// Usage reports err and exits 2. Call it before Create.
func (o *Outputs) Usage(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", o.name, err)
	os.Exit(2)
}

// Fail reports err, removes every regular file created so far and
// exits 1.
func (o *Outputs) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", o.name, err)
	o.discard()
	os.Exit(1)
}

// discard stops profiling, closes every output file and removes the
// regular ones: a FIFO or device the user named stays where it was.
func (o *Outputs) discard() {
	if o.cpuOn {
		pprof.StopCPUProfile()
	}
	for _, f := range o.files {
		fi, err := f.Stat()
		f.Close()
		if err == nil && fi.Mode().IsRegular() {
			os.Remove(f.Name())
		}
	}
}

// Create creates the output file path, or returns nil for "". Call it
// before the run; an error fails the run.
func (o *Outputs) Create(path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		o.Fail(err)
	}
	o.files = append(o.files, f)
	return f
}

// Profiles installs -cpuprofile and -memprofile on the default flag
// set. Call it before flag.Parse, and Start after.
func (o *Outputs) Profiles() {
	flag.StringVar(&o.cpu, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.mem, "memprofile", "", "write an allocation profile to this file on exit")
}

// Start creates the profile files and begins CPU profiling when
// -cpuprofile was given.
func (o *Outputs) Start() {
	if f := o.Create(o.cpu); f != nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			o.Fail(err)
		}
		o.cpuOn = true
	}
	o.memF = o.Create(o.mem)
}

// Telemetry creates the run report, Chrome-trace and JSONL event files
// (each skipped when its path is "") and returns the run's tracer and
// report. The tracer is nil unless one of the three is named, the
// report nil unless reportPath is; exp and seed head the report.
func (o *Outputs) Telemetry(exp string, seed int64, reportPath, tracePath, eventsPath string) (*telemetry.Tracer, *telemetry.Report) {
	o.reportF = o.Create(reportPath)
	var sinks []telemetry.Sink
	if f := o.Create(tracePath); f != nil {
		sinks = append(sinks, telemetry.NewChromeTrace(f))
	}
	if f := o.Create(eventsPath); f != nil {
		sinks = append(sinks, telemetry.NewJSONL(f))
	}
	if len(sinks) > 0 || o.reportF != nil {
		o.tracer = telemetry.New(sinks...)
	}
	if o.reportF != nil {
		o.report = telemetry.NewReport(exp, seed)
	}
	return o.tracer, o.report
}

// Close ends a good run: it attaches the tracer's counters to the
// report and writes it, flushes the trace, stops CPU profiling, writes
// the allocation profile and closes every output file. An error fails
// the run.
func (o *Outputs) Close() {
	if o.report != nil {
		o.report.AttachCounters(o.tracer.Registry())
		if err := o.report.WriteJSON(o.reportF); err != nil {
			o.Fail(fmt.Errorf("report: %v", err))
		}
	}
	if err := o.tracer.Close(); err != nil {
		o.Fail(fmt.Errorf("trace: %v", err))
	}
	if o.cpuOn {
		pprof.StopCPUProfile() // a no-op if Fail stops it again
	}
	if o.memF != nil {
		runtime.GC() // settle the live set so the profile reflects steady state
		if err := pprof.Lookup("allocs").WriteTo(o.memF, 0); err != nil {
			o.Fail(fmt.Errorf("profile: %v", err))
		}
	}
	for _, f := range o.files {
		if err := f.Close(); err != nil {
			o.Fail(err)
		}
	}
}
