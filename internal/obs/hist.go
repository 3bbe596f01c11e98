// Package obs holds the measurement types the serving packages share.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Hist is a lock-free histogram with power-of-two buckets over
// non-negative integers (nanoseconds, batch sizes): bucket i counts values
// v with 2^(i-1) ≤ v < 2^i, and the last bucket takes everything above.
// Quantiles are read off the bucket boundaries, which is plenty for serving
// metrics. The zero value is ready to use.
type Hist struct {
	buckets [48]atomic.Int64
	count   atomic.Int64
	max     atomic.Int64
}

// Observe records one value; negative values count as 0.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Quantile returns an upper bound on the q-quantile observation (0 when
// nothing has been observed): the upper edge of the bucket holding it, or
// Max where only Max bounds it — at q = 1 and in the overflow bucket.
func (h *Hist) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	var seen int64
	for i := 0; i < len(h.buckets)-1; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			return 1 << uint(i)
		}
	}
	return h.max.Load()
}

// Max returns the largest value observed.
func (h *Hist) Max() int64 { return h.max.Load() }
