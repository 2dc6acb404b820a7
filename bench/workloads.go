package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"hvc/internal/arena"
	"hvc/internal/core"
	"hvc/internal/fleet"
	"hvc/internal/sweep"
	"hvc/internal/telemetry"
)

// A workload is one closed-loop input set: a rep is one simulation
// batch, generated from the seed alone, run on one goroutine.
type workload struct {
	name string
	// unit names what units counts; the per-unit metrics divide by it.
	unit string
	why  string
	// prepare builds the rep's specs/configs from the seed. It is part
	// of set-up time. quick shrinks the specs for the smoke test.
	prepare func(seed int64, quick bool, sp *spans) (job, error)
}

// A job is a prepared workload: everything a rep needs, nothing
// derived from the seed left to do.
type job struct {
	units float64
	// rep runs the workload once through the public harness calls and
	// checks its outputs. sp may be nil.
	rep func(sp *spans) outcome
	// traceable runs the part of the workload that accepts a Tracer,
	// with tr (nil = untraced), and returns fidelity failures: outputs
	// that disagree with ref, the outcome of an untraced rep.
	traceable func(tr *telemetry.Tracer, sp *spans, ref outcome) (failed int)
	// cached, when set, re-runs the workload over a warm result cache
	// and checks the result against ref. Only table1-web has a cache.
	cached func(sp *spans, ref outcome) (failed int)
}

// An outcome is one rep's checked result.
type outcome struct {
	attempted, failed int
	// digest is the SHA-256 of the rendered simulated results.
	digest string
	// key holds the values the traced child's fidelity guards compare
	// bit-for-bit (goodputs, mean PLTs).
	key []float64
	err error
}

func fail(n int, err error) outcome { return outcome{attempted: n, failed: n, err: err} }

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var fig1aCCAs = []string{"cubic", "bbr", "vegas", "vivace"}
var table1Policies = []string{core.PolicyEMBBOnly, core.PolicyDChannel, core.PolicyDChannelPriority}

// spanName maps a policy or CCA name onto the metric-name grammar.
func spanName(prefix, s string) string {
	b := []byte(s)
	for i, c := range b {
		if c == '+' {
			b[i] = '-'
		}
	}
	return prefix + string(b)
}

var workloads = []workload{
	{
		name: "fig1a-bulk",
		unit: "flow-seconds",
		why:  "one long flow per CCA with a deep in-flight window: transport's ack/loss path does most of the work",
		prepare: func(seed int64, quick bool, sp *spans) (job, error) {
			dur := 60 * time.Second
			if quick {
				dur = 5 * time.Second
			}
			run := func(tr *telemetry.Tracer, sp *spans) ([]core.BulkResult, error) {
				var out []core.BulkResult
				for _, cca := range fig1aCCAs {
					end := sp.begin(spanName("core.call.", cca))
					r, err := core.RunBulk(core.BulkConfig{Seed: seed, Duration: dur, CC: cca, Tracer: tr})
					end()
					if err != nil {
						return nil, err
					}
					out = append(out, r)
				}
				return out, nil
			}
			check := func(rs []core.BulkResult) outcome {
				o := outcome{attempted: len(rs)}
				for i, r := range rs {
					o.key = append(o.key, r.Mbps)
					// The paper's Fig. 1a shape: CUBIC fills the eMBB pipe,
					// the delay-sensitive CCAs fall short of it.
					bad := !(r.Mbps > 0) || (i == 0 && r.Mbps < 50 && !quick) || (i > 0 && r.Mbps >= rs[0].Mbps)
					if bad {
						o.failed++
					}
				}
				return o
			}
			return job{
				units: float64(len(fig1aCCAs)) * dur.Seconds(),
				rep: func(sp *spans) outcome {
					rs, err := run(nil, sp)
					if err != nil {
						return fail(len(fig1aCCAs), err)
					}
					o := check(rs)
					end := sp.begin("report.render")
					var b bytes.Buffer
					for _, r := range rs {
						fmt.Fprintf(&b, "%s %s %v %d %d %d %s\n", r.CC, r.Policy, r.Mbps,
							r.Retransmits, r.RTOs, len(r.RTT.Points()), core.SortedCounts(r.ChannelShare))
					}
					o.digest = digest(b.Bytes())
					end()
					return o
				},
				traceable: func(tr *telemetry.Tracer, sp *spans, ref outcome) int {
					rs, err := run(tr, sp)
					if err != nil {
						return len(fig1aCCAs)
					}
					return mismatches(check(rs).key, ref.key)
				},
			}, nil
		},
	},
	{
		name: "table1-web",
		unit: "page-loads",
		why:  "hundreds of short connections with small objects and background flows: shallow windows, per-connection state, the stream scheduler, sweep and pool",
		prepare: func(seed int64, quick bool, sp *spans) (job, error) {
			// Five sweep seeds of 30 pages loaded once each: 150 independent
			// page draws over five trace realizations. One seed of 30 pages
			// loaded five times is the same 450 loads, but its cost swung
			// 10 % from seed to seed on which pages and which trace it drew.
			seeds, pages := 5, 30
			if quick {
				seeds, pages = 2, 3
			}
			first := subSeed(seed, seeds)
			end := sp.begin("spec.parse")
			spec, err := sweep.ParseSpec(fmt.Sprintf(
				"exp=web policy=embb-only,dchannel,dchannel+priority trace=lowband-driving seeds=%d..%d pages=%d loads=1",
				first, first+int64(seeds)-1, pages))
			if err == nil {
				spec, err = sweep.ParseSpec(spec.String())
			}
			end()
			if err != nil {
				return job{}, err
			}
			cells := len(table1Policies)
			// check validates a matrix and extracts each cell's mean PLT.
			check := func(m *sweep.Matrix) outcome {
				o := outcome{attempted: cells}
				if len(m.Cells) != cells {
					return fail(cells, fmt.Errorf("table1-web: %d cells, want %d", len(m.Cells), cells))
				}
				for _, c := range m.Cells {
					plt := math.NaN()
					for _, cm := range c.Metrics {
						if cm.Name == "plt_mean_ms" {
							plt = cm.Mean
						}
					}
					o.key = append(o.key, plt)
				}
				for i, plt := range o.key {
					// Table 1's ordering: priority steering beats eMBB-only.
					bad := math.IsNaN(plt) || math.IsInf(plt, 0) || plt <= 0 ||
						(i == cells-1 && plt >= o.key[0])
					if bad {
						o.failed++
					}
				}
				return o
			}
			return job{
				units: float64(cells * seeds * pages),
				rep: func(sp *spans) outcome {
					end := sp.begin("sweep.call")
					m, err := sweep.Run(spec, sweep.Options{Workers: 1})
					end()
					if err != nil {
						return fail(cells, err)
					}
					o := check(m)
					end = sp.begin("report.render")
					o.digest, err = matrixDigest(m)
					end()
					if err != nil {
						return fail(cells, err)
					}
					return o
				},
				cached: func(sp *spans, ref outcome) int { return cachedSweep(spec, sp, ref.digest) },
				// sweep.Run takes no Tracer, so the traced child drives the
				// same three cells through core.RunWeb directly.
				traceable: func(tr *telemetry.Tracer, sp *spans, ref outcome) int {
					var key []float64
					for _, policy := range table1Policies {
						var plts []float64
						for i := 0; i < seeds; i++ {
							end := sp.begin(spanName("core.call.", policy))
							r, err := core.RunWeb(core.WebConfig{
								Seed: first + int64(i), Trace: "lowband-driving", Policy: policy,
								Pages: pages, Loads: 1, Tracer: tr,
							})
							end()
							if err != nil {
								return cells
							}
							plts = append(plts, r.PLT.Mean())
						}
						key = append(key, core.Summarize(plts).Mean) // the cell's arithmetic
					}
					return mismatches(key, ref.key)
				},
			}, nil
		},
	},
	{
		name: "arena-64",
		unit: "flow-seconds",
		why:  "64 flows of five CCAs contending for one channel set: queue drops, retransmits, RTOs, hundreds of standing timers; CCA maths and loss recovery dominate",
		prepare: func(seed int64, quick bool, sp *spans) (job, error) {
			flows, dur := 64, 90*time.Second
			if quick {
				flows, dur = 8, 10*time.Second
			}
			end := sp.begin("spec.parse")
			spec, err := arena.ParseSpec(fmt.Sprintf(
				"flows=%d mix=cubic:1,bbr:1,copa:1,reno:1,vegas:1 join=200ms rttspread=40ms dur=%s policy=dchannel trace=lowband-stationary seed=%d",
				flows, dur, seed))
			if err == nil {
				spec, err = arena.ParseSpec(spec.String())
			}
			end()
			if err != nil {
				return job{}, err
			}
			run := func(tr *telemetry.Tracer, sp *spans) outcome {
				end := sp.begin("arena.call")
				r, err := arena.Run(spec, arena.Options{Tracer: tr})
				end()
				if err != nil {
					return fail(flows, err)
				}
				o := outcome{attempted: flows}
				total, shares := 0.0, 0.0
				for _, f := range r.Flows {
					total += f.GoodputMbps
					shares += f.Share
					if !(f.GoodputMbps > 0) {
						o.failed++
					}
				}
				// eMBB carries about 60 Mbps and URLLC 2, and a flow's goodput
				// is averaged over its own lifetime, so late joiners push the
				// sum a little past capacity. More than that, or shares that
				// are not shares, voids the run.
				if total > 66 || math.Abs(shares-1) > 1e-9 || !(r.Jain > 0 && r.Jain <= 1) {
					o.failed = flows
				}
				end = sp.begin("report.render")
				var b bytes.Buffer
				fmt.Fprintf(&b, "%s jain=%v converged=%v convergence=%v\n", r.Spec, r.Jain, r.Converged, r.Convergence)
				for _, f := range r.Flows {
					fmt.Fprintf(&b, "%s %v %v %v %v %v %v %v %v %d %d\n", f.CC, f.JoinAt, f.ExtraRTT,
						f.GoodputMbps, f.Share, f.MeanTputMbps, f.StdTputMbps, f.MeanRTTms, f.StdRTTms,
						f.Retransmits, f.RTOs)
				}
				o.digest = digest(b.Bytes())
				end()
				return o
			}
			return job{
				units: float64(flows) * dur.Seconds(),
				rep:   func(sp *spans) outcome { return run(nil, sp) },
				traceable: func(tr *telemetry.Tracer, sp *spans, ref outcome) int {
					o := run(tr, sp)
					if o.digest != ref.digest {
						return flows
					}
					return 0
				},
			}, nil
		},
	},
	{
		name: "fleet-video",
		unit: "UEs",
		why:  "thousands of 2 s video sessions: per-session construction, the scheduler, app/video, sketch aggregation and pool.Reduce; transport and cc do little",
		prepare: func(seed int64, quick bool, sp *spans) (job, error) {
			ues := 1200
			if quick {
				ues = 100
			}
			end := sp.begin("spec.parse")
			spec, err := fleet.ParseSpec(fmt.Sprintf("ues=%d seed=%d mix=video", ues, seed))
			if err == nil {
				spec, err = fleet.ParseSpec(spec.String())
			}
			end()
			if err != nil {
				return job{}, err
			}
			return job{
				units: float64(ues),
				rep: func(sp *spans) outcome {
					end := sp.begin("fleet.call")
					r, err := fleet.Run(spec, fleet.Options{Workers: 1})
					end()
					if err != nil {
						return fail(ues, err)
					}
					done := 0
					for _, s := range r.Group.Snapshot() {
						if s.Name == "video/ssim_mean" {
							done = int(s.N)
						}
					}
					o := outcome{attempted: ues, failed: ues - done}
					end = sp.begin("report.render")
					var b bytes.Buffer
					if err := r.WriteJSON(&b); err != nil {
						return fail(ues, err)
					}
					if err := r.WriteTable(&b); err != nil {
						return fail(ues, err)
					}
					o.digest = digest(b.Bytes())
					end()
					return o
				},
				// fleet.Run takes no Tracer and its per-UE profiles are
				// unexported, so the traced child runs 100 representative
				// sessions: the spec's policy and trace libraries taken in
				// turn, seeds derived from the fleet seed.
				traceable: func(tr *telemetry.Tracer, sp *spans, ref outcome) int {
					n, failed := 100, 0
					if quick {
						n = 10
					}
					for i := 0; i < n; i++ {
						end := sp.begin("core.call.video")
						r, err := core.RunVideo(core.VideoConfig{
							Seed:     seed*1000003 + int64(i),
							Duration: spec.Dur,
							Trace:    spec.Traces[i%len(spec.Traces)],
							Policy:   spec.Policies[i%len(spec.Policies)],
							Tracer:   tr,
						})
						end()
						if err != nil || r.Decoded == 0 {
							failed++
						}
					}
					return failed
				},
			}, nil
		},
	},
}

func matrixDigest(m *sweep.Matrix) (string, error) {
	var b bytes.Buffer
	if err := m.WriteCSV(&b); err != nil {
		return "", err
	}
	return digest(b.Bytes()), nil
}

// subSeed maps the workload seed onto the first of k consecutive
// sub-seeds that no other workload seed's range shares.
func subSeed(seed int64, k int) int64 {
	s := seed % (1 << 40)
	if s < 0 {
		s = -s
	}
	return s * int64(k)
}

// mismatches counts positions where got and want differ bit-for-bit.
func mismatches(got, want []float64) int {
	if len(got) != len(want) {
		return len(want)
	}
	n := 0
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			n++
		}
	}
	return n
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
