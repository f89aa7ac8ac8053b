package bench

import (
	"math/bits"
	"time"
)

// subBits sets the histogram's resolution: 2^subBits buckets per power
// of two, so a bucket is at most 1/512 (0.2%) of its values wide.
const subBits = 9

// maxBits bounds the latencies a Hist tells apart: 2^40 ns, some 18
// minutes; longer ones count in the last bucket.
const maxBits = 40

// Hist counts latencies in log-linear buckets of nanoseconds. Its size
// is fixed (64 KiB), so a run's live heap does not grow with its
// request count.
type Hist struct {
	counts [(maxBits - subBits + 1) << subBits]uint32
	n      int
}

// bucket is v's bucket index; values below 2^subBits ns count exactly.
func bucket(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketMid is a representative value of bucket i: its midpoint.
func bucketMid(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	e := i>>subBits - 1
	lo := uint64(i&(1<<subBits-1)+1<<subBits) << e
	return float64(lo) + float64(uint64(1)<<e-1)/2
}

// Add counts one latency.
func (h *Hist) Add(d time.Duration) {
	h.counts[bucket(min(uint64(max(d, 0)), 1<<maxBits-1))]++
	h.n++
}

// Merge adds the counts of others to h.
func (h *Hist) Merge(others ...Hist) {
	for k := range others {
		for i, c := range others[k].counts {
			h.counts[i] += c
		}
		h.n += others[k].n
	}
}

// Count is the number of latencies counted.
func (h *Hist) Count() int { return h.n }

// Percentile returns the pct-th percentile in microseconds by the
// nearest-rank rule (to the bucket's resolution) and how many latencies
// lie in higher buckets.
func (h *Hist) Percentile(pct int) (us float64, beyond int) {
	if h.n == 0 {
		return 0, 0
	}
	rank := uint64(max((pct*h.n+99)/100, 1))
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(i) / float64(time.Microsecond), h.n - int(seen)
		}
	}
	panic("bench: histogram counts do not add up")
}
