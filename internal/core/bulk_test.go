package core

import (
	"runtime"
	"testing"
	"time"
)

// TestBulkAllocPerRTTSample pins what a bulk run costs for recording
// its own result. The series doubles once full and each sample's
// channel label is one byte, so a run allocates at most about 2×16 B
// of series and 2 B of labels per sample on top of a fixed setup cost.
func TestBulkAllocPerRTTSample(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := RunBulk(BulkConfig{Seed: 1, Duration: 20 * time.Second, CC: "cubic"})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := r.RTT.N()
	if n < 10_000 {
		t.Fatalf("only %d RTT samples", n)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if budget := uint64(48*n + 2<<20); alloc > budget {
		t.Errorf("20 s bulk run allocated %d B for %d RTT samples (%.1f B/sample), budget %d B",
			alloc, n, float64(alloc)/float64(n), budget)
	}
	t.Logf("%d B for %d RTT samples (%.1f B/sample)", alloc, n, float64(alloc)/float64(n))
}
