package core

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"hvc/internal/channel"
	"hvc/internal/sim"
	"hvc/internal/trace"
)

func TestNewCCKnownNames(t *testing.T) {
	for _, name := range CCNames() {
		alg, err := NewCC(name)
		if err != nil {
			t.Fatalf("NewCC(%q): %v", name, err)
		}
		if alg.Name() != name {
			t.Fatalf("NewCC(%q).Name() = %q", name, alg.Name())
		}
		wrapped, err := NewCC("hvc-" + name)
		if err != nil {
			t.Fatalf("NewCC(hvc-%s): %v", name, err)
		}
		if wrapped.Name() != "hvc-"+name {
			t.Fatalf("wrapped name = %q", wrapped.Name())
		}
	}
	if _, err := NewCC("nope"); err == nil {
		t.Fatal("unknown CC should error")
	}
	if _, err := NewCC("hvc-nope"); err == nil {
		t.Fatal("unknown wrapped CC should error")
	}
}

func TestNewTraceKnownNames(t *testing.T) {
	for _, name := range TraceNames() {
		tr, err := NewTrace(name, 1, 10*time.Second)
		if err != nil {
			t.Fatalf("NewTrace(%q): %v", name, err)
		}
		if len(tr.Samples) == 0 {
			t.Fatalf("NewTrace(%q) empty", name)
		}
	}
	if _, err := NewTrace("nope", 1, time.Second); err == nil {
		t.Fatal("unknown trace should error")
	}
}

func TestNewPolicyKnownNames(t *testing.T) {
	loop := sim.NewLoop(1)
	g := Cellular(loop, trace.Constant("e", 50*time.Millisecond, 60e6))
	for _, name := range []string{PolicyEMBBOnly, PolicyDChannel, PolicyPriority, PolicyDChannelPriority} {
		if !ValidPolicy(name) {
			t.Errorf("ValidPolicy(%q) = false", name)
		}
		p, err := NewPolicy(name, g, channel.A)
		if err != nil || p == nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
	}
	if ValidPolicy("nope") {
		t.Fatal("ValidPolicy(nope) = true")
	}
	if _, err := NewPolicy("nope", g, channel.A); err == nil {
		t.Fatal("unknown policy should error")
	}
}

// TestNameTables walks the three name tables: every entry constructs,
// validates and fingerprints through the public functions, hvc- wraps
// (nested too) still resolve, and the policy fingerprints — cache-key
// material that used to be a hand-kept mirror of NewPolicy — are the
// exact strings the mirror produced.
func TestNameTables(t *testing.T) {
	for _, e := range ccTable {
		for _, name := range []string{e.name, "hvc-" + e.name, "hvc-hvc-" + e.name} {
			if alg, err := NewCC(name); err != nil || alg.Name() != name {
				t.Errorf("NewCC(%q) = %v, %v", name, alg, err)
			}
			if fp, err := CCFingerprint(name); err != nil || !strings.Contains(fp, e.name+"/v") {
				t.Errorf("CCFingerprint(%q) = %q, %v", name, fp, err)
			}
			if !ValidCC(name) {
				t.Errorf("ValidCC(%q) = false", name)
			}
		}
	}
	for _, bad := range []string{"", "hvc-", "hvc", "hvc-hvc-", "cubic-hvc", "Cubic"} {
		if _, err := NewCC(bad); err == nil || ValidCC(bad) {
			t.Errorf("cc %q accepted (NewCC err %v, ValidCC %t)", bad, err, ValidCC(bad))
		}
	}
	if got := strings.Join(CCNames(), " "); got != "cubic bbr vegas vivace reno copa" {
		t.Errorf("CCNames() = %s: Fig. 1a order moved", got)
	}

	for _, e := range traceTable {
		if tr, err := NewTrace(e.name, 1, time.Second); err != nil || tr == nil || !ValidTrace(e.name) {
			t.Errorf("trace %q: NewTrace err %v, ValidTrace %t", e.name, err, ValidTrace(e.name))
		}
	}
	if ValidTrace("starlink") || ValidTrace("") {
		t.Error("ValidTrace accepts an unknown name")
	}

	loop := sim.NewLoop(1)
	g := Cellular(loop, trace.Constant("e", 50*time.Millisecond, 60e6))
	want := map[string]string{
		PolicyEMBBOnly:         "single/v1 ch=embb",
		PolicyDChannel:         "dchannel/v1 wide=embb narrow=urllc beta=1",
		PolicyPriority:         "priority/v1 admit=0 heuristic=false fallback=(dchannel/v1 wide=embb narrow=urllc beta=1)",
		PolicyDChannelPriority: "priority/v1 admit=-1 heuristic=true fallback=(dchannel/v1 wide=embb narrow=urllc beta=1)",
		PolicyObjectMap:        "objectmap/v1 wide=embb narrow=urllc small=10240",
		PolicyRedundant:        "redundant/v1 live-channels",
	}
	if len(policyTable) != len(want) {
		t.Errorf("policy table has %d entries, fingerprints pinned for %d", len(policyTable), len(want))
	}
	for _, e := range policyTable {
		if p, err := NewPolicy(e.name, g, channel.A); err != nil || p == nil || !ValidPolicy(e.name) {
			t.Errorf("policy %q: NewPolicy err %v, ValidPolicy %t", e.name, err, ValidPolicy(e.name))
		}
		if fp, err := PolicyFingerprint(e.name); err != nil || fp != want[e.name] {
			t.Errorf("PolicyFingerprint(%q) = %q, %v; want %q", e.name, fp, err, want[e.name])
		}
	}
	if _, err := NewPolicy(PolicyEMBBOnly, channel.NewGroup(channel.URLLC(loop)), channel.A); err == nil {
		t.Error("embb-only over a group without eMBB accepted")
	}

	if err := CheckNames([]string{"cubic", "hvc-bbr"}, []string{PolicyRedundant}, []string{"fixed"}); err != nil {
		t.Errorf("CheckNames on valid names: %v", err)
	}
	for _, tc := range []struct {
		ccs, policies, traces []string
		want                  string
	}{
		{[]string{"cubic", "tahoe"}, nil, nil, `unknown congestion control "tahoe" (valid: cubic, bbr, vegas, vivace, reno, copa)`},
		{nil, []string{"teleport"}, []string{"starlink"}, `unknown steering policy "teleport" (valid: embb-only, dchannel, priority, dchannel+priority, objectmap, redundant)`},
		{nil, nil, []string{"fixed", "starlink"}, `unknown trace "starlink" (valid: lowband-stationary, lowband-walking, lowband-driving, mmwave-driving, fixed)`},
	} {
		if err := CheckNames(tc.ccs, tc.policies, tc.traces); err == nil || err.Error() != tc.want {
			t.Errorf("CheckNames(%v, %v, %v) = %v, want %s", tc.ccs, tc.policies, tc.traces, err, tc.want)
		}
	}
}

func TestCellularGroup(t *testing.T) {
	loop := sim.NewLoop(1)
	g := Cellular(loop, trace.Constant("e", 50*time.Millisecond, 60e6))
	if g.Len() != 2 || g.Get(channel.NameEMBB) == nil || g.Get(channel.NameURLLC) == nil {
		t.Fatal("Cellular group malformed")
	}
}

func TestSortedCounts(t *testing.T) {
	got := SortedCounts(map[string]int{"urllc": 2, "embb": 7})
	if got != "embb=7 urllc=2" {
		t.Fatalf("SortedCounts = %q", got)
	}
	if SortedCounts(nil) != "" {
		t.Fatal("empty map should render empty")
	}
}

// --- experiment shape tests (short durations; the full-length runs
// live in the benchmark harness) ---

func TestRunBulkValidation(t *testing.T) {
	if _, err := RunBulk(BulkConfig{CC: "cubic"}); err == nil {
		t.Fatal("zero duration should error")
	}
	if _, err := RunBulk(BulkConfig{CC: "nope", Duration: time.Second}); err == nil {
		t.Fatal("unknown CC should error")
	}
}

// TestRunnersRejectUnknownNames gives every config-taking runner one
// unknown name at a time — congestion control, steering policy or
// trace, wherever its config has the field. Each must return an error,
// never panic.
func TestRunnersRejectUnknownNames(t *testing.T) {
	const dur = time.Second
	runners := []struct {
		name  string
		reads []string // the names the config carries
		run   func(cc, policy, trace string) error
	}{
		{"bulk", []string{"cc", "policy", "trace"}, func(cc, policy, trace string) error {
			_, err := RunBulk(BulkConfig{Seed: 1, Duration: dur, CC: cc, Policy: policy, Trace: trace})
			return err
		}},
		{"video", []string{"policy", "trace"}, func(_, policy, trace string) error {
			_, err := RunVideo(VideoConfig{Seed: 1, Duration: dur, Policy: policy, Trace: trace})
			return err
		}},
		{"web", []string{"policy", "trace"}, func(_, policy, trace string) error {
			_, err := RunWeb(WebConfig{Seed: 1, Pages: 1, Loads: 1, Policy: policy, Trace: trace})
			return err
		}},
		{"outage", []string{"policy"}, func(_, policy, _ string) error {
			_, err := RunOutage(OutageConfig{Seed: 1, Duration: dur, Policy: policy})
			return err
		}},
		{"abr", []string{"policy", "trace"}, func(_, policy, trace string) error {
			_, err := RunABR(ABRConfig{Seed: 1, Media: dur, Policy: policy, Trace: trace})
			return err
		}},
		{"game", []string{"policy", "trace"}, func(_, policy, trace string) error {
			_, err := RunGame(GameConfig{Seed: 1, Duration: dur, Policy: policy, Trace: trace})
			return err
		}},
	}
	for _, r := range runners {
		for _, bad := range r.reads {
			t.Run(r.name+"/"+bad, func(t *testing.T) {
				names := map[string]string{"cc": "cubic", "policy": PolicyDChannel, "trace": "fixed"}
				names[bad] = "bogus"
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("unknown %s panicked: %v", bad, p)
					}
				}()
				if err := r.run(names["cc"], names["policy"], names["trace"]); err == nil {
					t.Fatalf("unknown %s: no error", bad)
				}
			})
		}
	}
}

func TestFig1aShapeShort(t *testing.T) {
	byName := map[string]float64{}
	for _, name := range []string{"cubic", "bbr", "vegas", "vivace"} {
		r, err := RunBulk(BulkConfig{Seed: 1, Duration: 15 * time.Second, CC: name})
		if err != nil {
			t.Fatal(err)
		}
		byName[r.CC] = r.Mbps
	}
	// The paper's Figure 1a ordering: CUBIC fills the wide channel;
	// the delay-based algorithms collapse, Vivace hardest.
	if byName["cubic"] < 45 {
		t.Errorf("cubic = %.1f Mbps, want near 60", byName["cubic"])
	}
	for _, delayBased := range []string{"bbr", "vegas", "vivace"} {
		if byName[delayBased] > byName["cubic"]/2 {
			t.Errorf("%s = %.1f Mbps should collapse well below cubic %.1f",
				delayBased, byName[delayBased], byName["cubic"])
		}
	}
	if byName["vivace"] > byName["bbr"] {
		t.Errorf("vivace %.1f should be the worst (bbr %.1f)", byName["vivace"], byName["bbr"])
	}
}

func TestFig1bRTTOscillates(t *testing.T) {
	r, err := RunBulk(BulkConfig{Seed: 1, Duration: 15 * time.Second, CC: "bbr"})
	if err != nil {
		t.Fatal(err)
	}
	if r.RTT.N() < 100 {
		t.Fatalf("only %d RTT samples", r.RTT.N())
	}
	var lo, hi int
	for _, p := range r.RTT.Points() {
		if p.Value < 15 {
			lo++ // both legs URLLC: ≈7 ms
		}
		if p.Value > 25 {
			hi++ // data over eMBB: ≥ its 25 ms one-way
		}
	}
	// The Fig. 1b signature: samples jump between channel-combination
	// latencies instead of tracking one path.
	if lo == 0 || hi == 0 {
		t.Fatalf("RTT not bimodal: %d low, %d high of %d", lo, hi, r.RTT.N())
	}
	if len(r.rttLabel) != r.RTT.N() {
		t.Fatal("channel labels misaligned")
	}
	seen := map[string]int{}
	for i := range r.RTT.N() {
		ch := r.RTTChannel(i)
		switch ch {
		case channel.NameEMBB, channel.NameURLLC, "":
		default:
			t.Fatalf("sample %d labeled %q", i, ch)
		}
		seen[ch]++
	}
	if seen[channel.NameEMBB] == 0 || seen[channel.NameURLLC] == 0 {
		t.Fatalf("both channels should carry sampled data: %v", seen)
	}
}

func TestAblationHVCAwareRecovers(t *testing.T) {
	var plain, aware []BulkResult
	for _, name := range []string{"bbr", "vegas", "vivace"} {
		p, err := RunBulk(BulkConfig{Seed: 1, Duration: 15 * time.Second, CC: name})
		if err != nil {
			t.Fatal(err)
		}
		a, err := RunBulk(BulkConfig{Seed: 1, Duration: 15 * time.Second, CC: "hvc-" + name})
		if err != nil {
			t.Fatal(err)
		}
		plain, aware = append(plain, p), append(aware, a)
	}
	for i := range plain {
		// The §3.2 claim: channel-aware RTT interpretation recovers
		// throughput for the delay-based algorithms (BBR, Vegas; the
		// Vivace utility function also improves, if less dramatically).
		if aware[i].Mbps < plain[i].Mbps {
			t.Errorf("%s: hvc-aware %.1f Mbps worse than plain %.1f",
				plain[i].CC, aware[i].Mbps, plain[i].Mbps)
		}
	}
	// BBR and Vegas must recover most of the channel.
	if aware[0].Mbps < 25 || aware[1].Mbps < 25 {
		t.Errorf("hvc-bbr %.1f / hvc-vegas %.1f Mbps: expected substantial recovery",
			aware[0].Mbps, aware[1].Mbps)
	}
}

func TestRunVideoValidation(t *testing.T) {
	if _, err := RunVideo(VideoConfig{Trace: "lowband-driving", Policy: PolicyPriority}); err == nil {
		t.Fatal("zero duration should error")
	}
	if _, err := RunVideo(VideoConfig{Duration: time.Second, Trace: "nope", Policy: PolicyPriority}); err == nil {
		t.Fatal("unknown trace should error")
	}
	if _, err := RunVideo(VideoConfig{Duration: time.Second, Trace: "lowband-driving", Policy: "nope"}); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestFig2ShapeShort(t *testing.T) {
	var results []VideoResult
	for _, policy := range []string{PolicyEMBBOnly, PolicyDChannel, PolicyPriority} {
		r, err := RunVideo(VideoConfig{Seed: 1, Duration: 20 * time.Second, Trace: "lowband-driving", Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	embb, dch, prio := results[0], results[1], results[2]
	for _, r := range results {
		if r.Decoded == 0 {
			t.Fatalf("%s decoded nothing", r.Policy)
		}
	}
	// The Fig. 2 ordering on tail latency: priority < DChannel < eMBB-only.
	if !(prio.Latency.Percentile(95) < dch.Latency.Percentile(95)) {
		t.Errorf("p95: priority %.0f ms should beat dchannel %.0f ms",
			prio.Latency.Percentile(95), dch.Latency.Percentile(95))
	}
	if !(dch.Latency.Percentile(95) < embb.Latency.Percentile(95)) {
		t.Errorf("p95: dchannel %.0f ms should beat embb-only %.0f ms",
			dch.Latency.Percentile(95), embb.Latency.Percentile(95))
	}
	// And the cost: priority trades a little SSIM for the latency.
	if prio.SSIM.Mean() > embb.SSIM.Mean() {
		t.Errorf("priority SSIM %.3f should not beat embb-only %.3f",
			prio.SSIM.Mean(), embb.SSIM.Mean())
	}
}

func TestRunWebValidation(t *testing.T) {
	if _, err := RunWeb(WebConfig{Trace: "lowband-stationary", Policy: "nope"}); err == nil {
		t.Fatal("unknown policy should error")
	}
	if _, err := RunWeb(WebConfig{Trace: "lowband-stationary", Policy: PolicyPriority}); err == nil {
		t.Fatal("video-style priority policy should be rejected for web")
	}
	if _, err := RunWeb(WebConfig{Trace: "nope", Policy: PolicyDChannel}); err == nil {
		t.Fatal("unknown trace should error")
	}
}

func TestTable1ShapeShort(t *testing.T) {
	var results []WebResult
	for _, policy := range []string{PolicyEMBBOnly, PolicyDChannel, PolicyDChannelPriority} {
		r, err := RunWeb(WebConfig{Seed: 1, Trace: "lowband-stationary", Policy: policy, Pages: 4, Loads: 1})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	embb, dch, prio := results[0], results[1], results[2]
	if embb.PLT.N() != 4 || dch.PLT.N() != 4 || prio.PLT.N() != 4 {
		t.Fatalf("incomplete loads: %d %d %d", embb.PLT.N(), dch.PLT.N(), prio.PLT.N())
	}
	// Table 1 ordering: eMBB-only slowest, flow-priority hints fastest.
	if !(dch.MeanPLT < embb.MeanPLT) {
		t.Errorf("dchannel %v should beat embb-only %v", dch.MeanPLT, embb.MeanPLT)
	}
	if !(prio.MeanPLT < dch.MeanPLT) {
		t.Errorf("dchannel+priority %v should beat dchannel %v", prio.MeanPLT, dch.MeanPLT)
	}
	if dch.BgUploads == 0 || dch.BgDownloads == 0 {
		t.Error("background flows made no progress")
	}
}

func TestRunMLOShape(t *testing.T) {
	single := RunMLO(1, 300, 1200, 10*time.Millisecond, false)
	red := RunMLO(1, 300, 1200, 10*time.Millisecond, true)
	if !(red.DeliveryRate > single.DeliveryRate) {
		t.Errorf("redundant delivery %.3f should beat single lossy link %.3f",
			red.DeliveryRate, single.DeliveryRate)
	}
	if red.DeliveryRate < 0.995 {
		t.Errorf("redundant delivery %.3f should be near-perfect", red.DeliveryRate)
	}
	if !(red.PacketsOnAir > single.PacketsOnAir) {
		t.Error("replication must cost air time")
	}
}

func TestRunCostShape(t *testing.T) {
	free := RunCost(1, 200, 20*time.Millisecond, 0)
	budget := RunCost(1, 200, 20*time.Millisecond, 50_000)
	if !(budget.Latency.Mean() < free.Latency.Mean()) {
		t.Errorf("budgeted mean latency %.1f ms should beat fiber-only %.1f ms",
			budget.Latency.Mean(), free.Latency.Mean())
	}
	if budget.Dollars <= 0 || free.Dollars != 0 {
		t.Errorf("dollars: budget=%v free=%v", budget.Dollars, free.Dollars)
	}
	big := RunCost(1, 200, 20*time.Millisecond, 1e7)
	if big.Dollars <= budget.Dollars {
		t.Error("a larger budget should spend more")
	}
	if big.Latency.Mean() > budget.Latency.Mean() {
		t.Error("a larger budget should not be slower")
	}
}

func TestRunBulkDeterministic(t *testing.T) {
	a, err := RunBulk(BulkConfig{Seed: 5, Duration: 5 * time.Second, CC: "bbr"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBulk(BulkConfig{Seed: 5, Duration: 5 * time.Second, CC: "bbr"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mbps != b.Mbps || a.RTT.N() != b.RTT.N() {
		t.Fatalf("nondeterministic: %.3f/%d vs %.3f/%d", a.Mbps, a.RTT.N(), b.Mbps, b.RTT.N())
	}
}

func TestRunMultipathShape(t *testing.T) {
	mp := RunMultipath(1, 10*time.Second, "multipath")
	dch := RunMultipath(1, 10*time.Second, "dchannel")
	prio := RunMultipath(1, 10*time.Second, "priority")

	// Aggregation and agnostic steering both bury URLLC; the flow
	// hint keeps the probe near URLLC's propagation latency.
	if prio.Probe.Percentile(95) > 30 {
		t.Errorf("priority probe p95 %.1f ms; URLLC should stay clear", prio.Probe.Percentile(95))
	}
	for _, r := range []MultipathResult{mp, dch} {
		if r.Probe.Percentile(50) < 5*prio.Probe.Percentile(50) {
			t.Errorf("%s probe p50 %.1f ms should be far above priority's %.1f",
				r.Mode, r.Probe.Percentile(50), prio.Probe.Percentile(50))
		}
	}
	// Bulk throughput is comparable in all modes (the hint costs a
	// few percent at most).
	if prio.BulkMbps < 0.9*dch.BulkMbps {
		t.Errorf("priority bulk %.1f Mbps lost too much vs dchannel %.1f",
			prio.BulkMbps, dch.BulkMbps)
	}
	if mp.BulkMbps < 0.9*dch.BulkMbps {
		t.Errorf("multipath bulk %.1f Mbps should match dchannel %.1f",
			mp.BulkMbps, dch.BulkMbps)
	}
}

func TestRunMultipathUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown mode should panic")
		}
	}()
	RunMultipath(1, time.Second, "nope")
}

func TestRunBetaSweepShape(t *testing.T) {
	aggressive, shy := RunBeta(1, 15*time.Second, 0.5), RunBeta(1, 15*time.Second, 4)
	points := []BetaPoint{aggressive, shy}
	// A lower cost coefficient must spend more of URLLC.
	if aggressive.URLLCShare <= shy.URLLCShare {
		t.Errorf("β=0.5 URLLC share %.3f should exceed β=4's %.3f",
			aggressive.URLLCShare, shy.URLLCShare)
	}
	for _, p := range points {
		if p.P95Latency <= 0 || p.SSIM <= 0 {
			t.Errorf("β=%v produced empty results: %+v", p.Beta, p)
		}
	}
}

func TestRunTailBoostImprovesCompletion(t *testing.T) {
	plain := RunTailBoost(1, 100, 60_000, 50*time.Millisecond, false)
	boosted := RunTailBoost(1, 100, 60_000, 50*time.Millisecond, true)
	if plain.Latency.N() != 100 || boosted.Latency.N() != 100 {
		t.Fatalf("incomplete: %d vs %d messages", plain.Latency.N(), boosted.Latency.N())
	}
	if boosted.Latency.Mean() >= plain.Latency.Mean() {
		t.Errorf("tail boost mean %.1f ms should beat plain %.1f ms",
			boosted.Latency.Mean(), plain.Latency.Mean())
	}
}

func TestObjectMapWebBetweenBaselines(t *testing.T) {
	// The §1 claim about IANS: object-granularity channel assignment
	// helps versus one channel but loses to per-packet steering.
	run := func(policy string) float64 {
		r, err := RunWeb(WebConfig{
			Seed: 1, Trace: "lowband-stationary", Policy: policy,
			Pages: 4, Loads: 1, NoBackground: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.PLT.Mean()
	}
	embb := run(PolicyEMBBOnly)
	ians := run(PolicyObjectMap)
	dch := run(PolicyDChannel)
	if !(ians < embb) {
		t.Errorf("objectmap %.1f ms should beat embb-only %.1f", ians, embb)
	}
	if !(dch < ians) {
		t.Errorf("dchannel %.1f ms should beat objectmap %.1f", dch, ians)
	}
}

func TestRunBulkCapture(t *testing.T) {
	var csv strings.Builder
	if _, err := RunBulk(BulkConfig{Seed: 1, Duration: 3 * time.Second, CC: "cubic", Capture: &csv}); err != nil {
		t.Fatal(err)
	}
	// Bulk data flows client→server, i.e. on the link leaving side A:
	// sum its delivered_bytes column.
	var n int
	var bytes float64
	for _, row := range strings.Split(csv.String(), "\n") {
		f := strings.Split(row, ",")
		if len(f) == 6 && f[1] == channel.NameEMBB && f[2] == channel.A.String() {
			v, err := strconv.ParseFloat(f[4], 64)
			if err != nil {
				t.Fatal(err)
			}
			n, bytes = n+1, bytes+v
		}
	}
	if n < 20 {
		t.Fatalf("capture recorded %d samples", n)
	}
	if rate := bytes * 8 / (float64(n) * captureEvery.Seconds()) / 1e6; rate < 10 {
		t.Fatalf("captured eMBB rate %.1f Mbps implausibly low for cubic", rate)
	}
}

func TestRunABRValidation(t *testing.T) {
	if _, err := RunABR(ABRConfig{Trace: "fixed", Policy: PolicyDChannel}); err == nil {
		t.Fatal("zero media should error")
	}
	if _, err := RunABR(ABRConfig{Media: time.Second, Trace: "nope", Policy: PolicyDChannel}); err == nil {
		t.Fatal("unknown trace should error")
	}
	if _, err := RunABR(ABRConfig{Media: time.Second, Trace: "fixed", Policy: "nope"}); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestABRComparisonShape(t *testing.T) {
	var rs []ABRResult
	for _, policy := range []string{PolicyEMBBOnly, PolicyObjectMap, PolicyDChannel} {
		r, err := RunABR(ABRConfig{Seed: 1, Media: 30 * time.Second, Trace: "mmwave-driving", Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	embb, dch := rs[0], rs[2]
	for _, r := range rs {
		if r.Played < 29*time.Second {
			t.Errorf("%s played only %v", r.Policy, r.Played)
		}
	}
	// Steering's ABR win concentrates in interactivity: the first
	// chunk's request and tail ride URLLC, halving startup delay.
	if dch.StartupDelay >= embb.StartupDelay {
		t.Errorf("dchannel startup %v should beat embb-only %v",
			dch.StartupDelay, embb.StartupDelay)
	}
}

func TestRunTSNShape(t *testing.T) {
	be := RunTSN(1, 5*time.Second, false)
	tsn := RunTSN(1, 5*time.Second, true)
	if be.MissRate < 0.3 {
		t.Errorf("best-effort miss rate %.2f should be high under contention", be.MissRate)
	}
	if tsn.MissRate > 0.02 {
		t.Errorf("TSN miss rate %.2f should be near zero", tsn.MissRate)
	}
	if tsn.P99Latency >= be.P99Latency && be.Completed > 0 {
		t.Errorf("TSN p99 %.1f should beat best-effort %.1f", tsn.P99Latency, be.P99Latency)
	}
}

func TestConfigFingerprints(t *testing.T) {
	seen := map[string]string{}
	for _, name := range CCNames() {
		for _, full := range []string{name, "hvc-" + name} {
			fp, err := CCFingerprint(full)
			if err != nil {
				t.Fatalf("CCFingerprint(%q): %v", full, err)
			}
			if fp == "" {
				t.Fatalf("CCFingerprint(%q) empty", full)
			}
			if prev, dup := seen[fp]; dup {
				t.Fatalf("fingerprint collision: %q and %q both yield %q", prev, full, fp)
			}
			seen[fp] = full
			again, _ := CCFingerprint(full)
			if again != fp {
				t.Fatalf("CCFingerprint(%q) unstable: %q then %q", full, fp, again)
			}
		}
	}
	// The wrapper's fingerprint must expose the inner tuning, so an
	// inner constant change invalidates hvc- cells too.
	inner, _ := CCFingerprint("bbr")
	wrapped, _ := CCFingerprint("hvc-bbr")
	if !strings.Contains(wrapped, inner) {
		t.Fatalf("hvc-bbr fingerprint %q does not embed bbr's %q", wrapped, inner)
	}
	if _, err := CCFingerprint("nope"); err == nil {
		t.Fatal("unknown CC accepted")
	}

	pseen := map[string]string{}
	for _, p := range []string{PolicyEMBBOnly, PolicyDChannel, PolicyPriority, PolicyDChannelPriority, PolicyObjectMap} {
		fp, err := PolicyFingerprint(p)
		if err != nil {
			t.Fatalf("PolicyFingerprint(%q): %v", p, err)
		}
		if fp == "" {
			t.Fatalf("PolicyFingerprint(%q) empty", p)
		}
		if prev, dup := pseen[fp]; dup {
			t.Fatalf("fingerprint collision: %q and %q both yield %q", prev, p, fp)
		}
		pseen[fp] = p
	}
	if _, err := PolicyFingerprint("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSummarize(t *testing.T) {
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	cases := []struct {
		name string
		vals []float64
		want Summary
	}{
		{"empty", nil, Summary{}},
		{"n=1", []float64{42}, Summary{N: 1, Mean: 42, Min: 42, Max: 42, Median: 42}},
		{"odd-n", []float64{3, 1, 2}, Summary{N: 3, Mean: 2, Std: 1, Min: 1, Max: 3, Median: 2,
			CI95: 4.303 * 1 / math.Sqrt(3)}},
		{"even-n", []float64{4, 1, 3, 2}, Summary{N: 4, Mean: 2.5, Min: 1, Max: 4, Median: 2.5,
			Std: math.Sqrt(5.0 / 3.0), CI95: 3.182 * math.Sqrt(5.0/3.0) / 2}},
		{"constant", []float64{7, 7, 7, 7, 7}, Summary{N: 5, Mean: 7, Min: 7, Max: 7, Median: 7}},
		{"skewed-median", []float64{1, 1, 1, 1, 100}, Summary{N: 5, Mean: 20.8, Min: 1, Max: 100,
			Median: 1, Std: math.Sqrt(4.0*(19.8*19.8)/4.0 + 79.2*79.2/4.0),
			CI95: 2.776 * math.Sqrt(4.0*(19.8*19.8)/4.0+79.2*79.2/4.0) / math.Sqrt(5)}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := Summarize(c.vals)
			if got.N != c.want.N || !approx(got.Mean, c.want.Mean) ||
				!approx(got.Std, c.want.Std) || !approx(got.Min, c.want.Min) ||
				!approx(got.Max, c.want.Max) || !approx(got.Median, c.want.Median) ||
				!approx(got.CI95, c.want.CI95) {
				t.Fatalf("Summarize(%v) = %+v, want %+v", c.vals, got, c.want)
			}
		})
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	Summarize(vals)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("input reordered: %v", vals)
	}
}

func TestSummarizeLargeNUsesNormalCritical(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i % 2) // alternating 0/1: mean .5, std ≈ .5025
	}
	s := Summarize(vals)
	want := 1.960 * s.Std / 10
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v (normal critical value for df=99)", s.CI95, want)
	}
}

func TestRepeatOverVideoSeeds(t *testing.T) {
	var p95 []float64
	for seed := int64(1); seed <= 3; seed++ {
		r, err := RunVideo(VideoConfig{
			Seed: seed, Duration: 10 * time.Second,
			Trace: "lowband-driving", Policy: PolicyPriority,
		})
		if err != nil {
			t.Fatal(err)
		}
		p95 = append(p95, r.Latency.Percentile(95))
	}
	s := Summarize(p95)
	if s.N != 3 || s.Mean <= 0 {
		t.Fatalf("summary %+v", s)
	}
	// Priority steering pins the tail near the decode wait regardless
	// of seed: the spread should be small.
	if s.Std > 30 {
		t.Fatalf("priority p95 varies too much across seeds: %+v", s)
	}
}

// BenchmarkVideoSession is one fleet UE: a 2 s video session from
// world construction to drained. What it costs beyond its events is
// what a short session pays for being short.
func BenchmarkVideoSession(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunVideo(VideoConfig{
			Seed: 1, Duration: 2 * time.Second,
			Trace: "lowband-driving", Policy: PolicyPriority,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkSession is one short deep-window world: a CUBIC flow
// under DChannel steering for three simulated seconds, from world
// construction to the hand-off of its full window.
func BenchmarkBulkSession(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBulk(BulkConfig{
			Seed: 1, Duration: 3 * time.Second, CC: "cubic", Policy: PolicyDChannel,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWebSession is one short web world: three pages loaded once,
// with the background flows, from world construction to the last load.
func BenchmarkWebSession(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunWeb(WebConfig{
			Seed: 1, Trace: "lowband-driving", Policy: PolicyDChannel, Pages: 3, Loads: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
