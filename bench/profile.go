package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
)

// Instrument 3: a CPU profile of the real workload, leaf samples
// bucketed by package. Spans taken from outside cannot split netem,
// channel and transport inside one Loop.Step; the sampler can. The
// profile is kept in memory and decoded here (the subset of
// profile.proto that the leaf function of each sample needs), so the
// traced child writes no file and needs no `go tool pprof`.

// A profiler holds a running CPU profile and the runtime accounts read
// when it started.
type profiler struct {
	buf   bytes.Buffer
	gcCPU float64
	cpu   float64
	numGC uint32
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func rusage() (cpuSeconds, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func startProfile() (*profiler, error) {
	p := &profiler{gcCPU: gcCPUSeconds()}
	p.cpu, _ = rusage()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.numGC = m.NumGC
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and fills out with the self_frac buckets and
// the runtime.* accounts over the profiled interval.
func (p *profiler) stop(out map[string]float64) error {
	pprof.StopCPUProfile()
	cpu, rss := rusage()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out["runtime.gc_cpu_s"] = gcCPUSeconds() - p.gcCPU
	out["runtime.cpu_s"] = cpu - p.cpu
	out["runtime.num_gc"] = float64(m.NumGC - p.numGC)
	out["runtime.heap_sys_mb"] = float64(m.HeapSys) / (1 << 20)
	out["runtime.max_rss_mb"] = rss

	leaves, err := decodeLeaves(p.buf.Bytes())
	if err != nil {
		return err
	}
	selfFracs(leaves, out)
	return nil
}

// selfFracs turns leaf sample counts into one share per bucket.
func selfFracs(leaves map[string]int64, out map[string]float64) {
	var total int64
	byBucket := map[string]int64{}
	for fn, n := range leaves {
		byBucket[bucketOf(fn)] += n
		total += n
	}
	for _, b := range profileBuckets {
		out[b+".self_frac"] = ratio(byBucket[b], total)
	}
}

// harnessPackages run simulations rather than simulate.
var harnessPackages = map[string]bool{"core": true, "fleet": true, "sweep": true, "arena": true, "pool": true}

// bucketOf maps a function's full name to the bucket that owns its
// self time: the repo's layers by package, the Go runtime (which
// includes the collector and runtime.asyncPreempt, the frame a
// preempted goroutine is sampled in), and everything else.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "hvc/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if harnessPackages[pkg] {
			return "harness"
		}
		for _, b := range profileBuckets {
			if b == pkg {
				return b
			}
		}
		return "other" // packet, telemetry, invariant, fault, ...
	}
	for _, prefix := range []string{"runtime.", "runtime/", "internal/runtime/", "internal/bytealg.", "internal/abi.", "internal/cpu."} {
		if strings.HasPrefix(fn, prefix) {
			return "runtime"
		}
	}
	return "other"
}

// decodeLeaves reads a gzipped profile.proto and returns, per leaf
// function name, the number of samples whose innermost frame it is.
func decodeLeaves(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Profile fields: 2 sample, 4 location, 5 function, 6 string_table.
	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> innermost function id
	funcName := map[uint64]uint64{} // function id -> string index
	var strs []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first; packed or not
					ids, err := varints(v, b)
					if len(ids) > 0 && first {
						s.leaf, first = ids[0], false
					}
					return err
				case 2: // value; the first is the sample count
					vals, err := varints(v, b)
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	leaves := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if i := funcName[locFunc[s.leaf]]; i > 0 && int(i) < len(strs) {
			name = strs[i]
		}
		leaves[name] += s.count
	}
	return leaves, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

func uvarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField walks one protobuf message, calling fn with the field
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, rest, err := uvarint(b)
		if err != nil {
			return err
		}
		b = rest
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, b, err = uvarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := uvarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errTruncated
			}
			payload, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values: the packed bytes
// when present, else the single value.
func varints(v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(packed) > 0 {
		x, rest, err := uvarint(packed)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
		packed = rest
	}
	return out, nil
}
