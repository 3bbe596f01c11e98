package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %d, want 0", got)
	}
	if got := h.Max(); got != 0 {
		t.Errorf("empty Max = %d, want 0", got)
	}
}

func TestHistQuantilesAreBucketUpperBounds(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	// Rank 50 is the value 51, which lies in [32, 64).
	if got := h.Quantile(0.50); got != 64 {
		t.Errorf("Quantile(0.50) = %d, want 64", got)
	}
	// Rank 99 is the value 100, which lies in [64, 128).
	if got := h.Quantile(0.99); got != 128 {
		t.Errorf("Quantile(0.99) = %d, want 128", got)
	}
	// q = 1 ranks past the last observation: only Max bounds it.
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %d, want the max 100", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("Max = %d, want 100", got)
	}
}

func TestHistNegativeCountsAsZero(t *testing.T) {
	var h Hist
	h.Observe(-5)
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("Quantile(0.5) after a negative value = %d, want 1 (bucket 0's edge)", got)
	}
	if got := h.Max(); got != 0 {
		t.Errorf("Max after a negative value = %d, want 0", got)
	}
}

func TestHistOverflowBucketAnswersMax(t *testing.T) {
	var h Hist
	h.Observe(7)
	h.Observe(1 << 50)
	h.Observe(math.MaxInt64)
	if got := h.Quantile(0); got != 8 {
		t.Errorf("Quantile(0) = %d, want 8", got)
	}
	// Both large values share the last bucket, whose upper edge is unknown.
	if got := h.Quantile(0.5); got != math.MaxInt64 {
		t.Errorf("Quantile(0.5) = %d, want the max", got)
	}
}

func TestHistConcurrentObserve(t *testing.T) {
	var h Hist
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Max(); got != 3999 {
		t.Errorf("Max = %d, want 3999", got)
	}
	if got := h.Quantile(1); got != 3999 {
		t.Errorf("Quantile(1) = %d, want 3999", got)
	}
}
