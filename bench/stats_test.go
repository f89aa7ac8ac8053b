package bench

import (
	"sort"
	"testing"
	"time"

	"dvfsroofline/internal/stats"
)

func TestNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		sorted []float64
		pct    int
		want   float64
	}{
		{ten, 50, 5},
		{ten, 10, 1},
		{ten, 11, 2},
		{ten, 99, 10},
		{ten, 100, 10},
		{hundred, 99, 99}, // rank 99 exactly, not rounded up to 100
		{hundred, 50, 50},
		{[]float64{1, 2, 2, 2, 3}, 50, 2},
		{[]float64{7}, 99, 7},
	} {
		if got := NearestRank(c.sorted, c.pct); got != c.want {
			t.Errorf("NearestRank(n=%d, p%d) = %g, want %g", len(c.sorted), c.pct, got, c.want)
		}
	}
}

// TestHistPercentile checks the histogram against nearest rank over the
// raw latencies: the value to within a bucket, and the count of samples
// beyond it exactly, at bucket granularity.
func TestHistPercentile(t *testing.T) {
	rng := stats.NewRNG(1)
	var h Hist
	raw := make([]float64, 5000)
	for i := range raw {
		d := time.Duration(50 + rng.Float64()*rng.Float64()*2e6) // 50 ns .. 2 ms, skewed
		raw[i] = float64(d)
		h.Add(d)
	}
	sort.Float64s(raw)
	for _, pct := range []int{1, 50, 90, 99, 100} {
		want := NearestRank(raw, pct)
		got, beyond := h.Percentile(pct)
		got *= float64(time.Microsecond)
		if d := (got - want) / want; d > 1.0/512 || d < -1.0/512 {
			t.Errorf("p%d = %g ns, nearest rank %g ns: off by %.3f%%", pct, got, want, 100*d)
		}
		wantBeyond := 0
		for _, v := range raw {
			if bucket(uint64(v)) > bucket(uint64(want)) {
				wantBeyond++
			}
		}
		if beyond != wantBeyond {
			t.Errorf("p%d: %d beyond, want %d", pct, beyond, wantBeyond)
		}
	}
	var small Hist
	for _, d := range []time.Duration{3, 1, 2, 2, 90} {
		small.Add(d)
	}
	if v, b := small.Percentile(50); v != 0.002 || b != 2 {
		t.Errorf("small p50 = %g us with %d beyond, want 0.002 us with 2 beyond", v, b)
	}
}

func TestBucketsAreContiguous(t *testing.T) {
	prev := 0
	for v := uint64(1); v < 1<<20; v++ {
		b := bucket(v)
		if b != prev && b != prev+1 {
			t.Fatalf("bucket(%d) = %d after %d", v, b, prev)
		}
		if lo := bucketMid(b); lo > float64(v)+float64(v)/512 || lo < float64(v)-float64(v)/512 {
			t.Fatalf("bucket %d's midpoint %g is far from %d", b, lo, v)
		}
		prev = b
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5.5, 1.25, 9, 2, 7, 3.5, 8, 4, 6, 10, 0.5}, [3]float64{2, 5.5, 8}},
	} {
		q1, q2, q3, err := Quartiles(c.xs)
		if err != nil || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("Quartiles(%v) = %v %v %v, %v; want %v", c.xs, q1, q2, q3, err, c.want)
		}
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one value did not fail")
	}
}
