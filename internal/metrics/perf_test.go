package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestPercentileCachesSortedState pins the sorted-state cache
// whitebox: querying an order statistic sorts once and marks the
// distribution sorted; Adds that keep the values ordered preserve the
// mark, disordering Adds invalidate it, and the next query restores
// it. Every experiment table leans on this — they read several
// percentiles off each distribution back to back.
func TestPercentileCachesSortedState(t *testing.T) {
	var d Distribution
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		d.Add(r.Float64() * 100)
	}
	if d.sorted {
		t.Fatal("random stream left the distribution marked sorted")
	}
	p95 := d.Percentile(95)
	if !d.sorted {
		t.Fatal("Percentile did not cache the sorted state")
	}
	if again := d.Percentile(95); again != p95 {
		t.Fatalf("repeated query changed: %v then %v", p95, again)
	}

	// Appending at or above the maximum keeps the order, so the cache
	// must survive...
	d.Add(d.Max() + 1)
	if !d.sorted {
		t.Fatal("in-order Add invalidated the sorted cache")
	}
	// ...while an out-of-order Add must invalidate it, and the next
	// query must reflect the new value.
	d.Add(d.Min() - 1)
	if d.sorted {
		t.Fatal("disordering Add left the stale sorted mark")
	}
	if got, want := d.Percentile(0), d.Min(); got != want {
		t.Fatalf("p0 after re-sort = %v, want new minimum %v", got, want)
	}
}

// TestPercentileQueriesAllocFree pins the steady-state cost: once
// sorted, an order-statistic query neither re-sorts nor allocates.
func TestPercentileQueriesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var d Distribution
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		d.Add(r.NormFloat64())
	}
	d.Percentile(50) // pay the one sort
	if avg := testing.AllocsPerRun(200, func() {
		_ = d.Percentile(95)
		_ = d.Percentile(99)
		_ = d.Median()
	}); avg != 0 {
		t.Errorf("sorted-state queries allocate %v/op, want 0", avg)
	}
}

// BenchmarkPercentileRepeated is the regression guard for the sorted
// cache: with caching, b.N queries cost O(1) each after one sort; a
// regression to sort-per-call shows up as a ~1000× slowdown at this
// size.
func BenchmarkPercentileRepeated(b *testing.B) {
	var d Distribution
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		d.Add(r.Float64())
	}
	d.Percentile(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Percentile(99)
	}
}

// BenchmarkPercentileInterleaved measures the honest mixed workload:
// each disordering Add invalidates the cache and the following query
// re-sorts a mostly-sorted slice.
func BenchmarkPercentileInterleaved(b *testing.B) {
	var d Distribution
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		d.Add(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(r.Float64())
		_ = d.Percentile(95)
	}
}

// totalAlloc reports the fewest bytes fn allocates in three runs:
// TotalAlloc counts every goroutine's allocations, and the minimum
// sheds what the test runtime allocates alongside.
func totalAlloc(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// growthBound checks a container that kept n elements of size bytes
// in capacity c after allocating alloc bytes. Doubling allocates at
// most twice the final capacity (every earlier array together is
// smaller than the last) and leaves the capacity under 2n. Append's
// 1.25× growth past 256 elements allocates about 5n, over 2·c.
func growthBound(t *testing.T, alloc uint64, n, c, size int) {
	t.Helper()
	if c >= 2*n {
		t.Errorf("capacity %d for %d elements, want < 2×", c, n)
	}
	if budget := uint64(2*c*size + 4<<10); alloc > budget {
		t.Errorf("%d Adds allocated %d B (%.2f elements each), want ≤ 2·cap·%d B + 4 KiB = %d",
			n, alloc, float64(alloc)/float64(n*size), size, budget)
	}
}

func TestTimeSeriesGrowthBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const n = 100_000
	var ts TimeSeries
	alloc := totalAlloc(func() {
		ts = TimeSeries{}
		for i := range n {
			ts.Add(time.Duration(i), float64(i)/3)
		}
	})
	growthBound(t, alloc, n, cap(ts.points), int(unsafe.Sizeof(TimePoint{})))
	for i, p := range ts.Points() {
		if p != (TimePoint{At: time.Duration(i), Value: float64(i) / 3}) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

func TestDistributionGrowthBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const n = 100_000
	var d Distribution
	r := rand.New(rand.NewSource(5))
	want := make([]float64, n)
	for i := range want {
		want[i] = r.NormFloat64()
	}
	alloc := totalAlloc(func() {
		d = Distribution{}
		for _, v := range want {
			d.Add(v)
		}
	})
	growthBound(t, alloc, n, cap(d.values), 8)
	if !slices.Equal(d.values, want) {
		t.Fatal("values differ from the observations added")
	}
	slices.Sort(want)
	if !slices.Equal(d.Values(), want) || d.Min() != want[0] || d.Max() != want[n-1] {
		t.Fatal("order statistics differ from the observations added")
	}
}

// TestSmallContainersGrowLikeAppend pins the other side of the growth
// rule: a container of up to 200 elements (fleet keeps one per UE)
// grows exactly as plain append grows a slice, in capacity and in
// allocations.
func TestSmallContainersGrowLikeAppend(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for n := 1; n <= 200; n++ {
		var ts TimeSeries
		var d Distribution
		var points []TimePoint
		var values []float64
		tsAllocs := testing.AllocsPerRun(5, func() {
			ts = TimeSeries{}
			for i := range n {
				ts.Add(time.Duration(i), 1)
			}
		})
		dAllocs := testing.AllocsPerRun(5, func() {
			d = Distribution{}
			for range n {
				d.Add(1)
			}
		})
		pointAllocs := testing.AllocsPerRun(5, func() {
			points = nil
			for i := range n {
				points = append(points, TimePoint{At: time.Duration(i), Value: 1})
			}
		})
		valueAllocs := testing.AllocsPerRun(5, func() {
			values = nil
			for range n {
				values = append(values, 1)
			}
		})
		if tsAllocs != pointAllocs || cap(ts.points) != cap(points) {
			t.Errorf("n=%d: series %v allocs cap %d, append %v allocs cap %d",
				n, tsAllocs, cap(ts.points), pointAllocs, cap(points))
		}
		if dAllocs != valueAllocs || cap(d.values) != cap(values) {
			t.Errorf("n=%d: distribution %v allocs cap %d, append %v allocs cap %d",
				n, dAllocs, cap(d.values), valueAllocs, cap(values))
		}
	}
}
