package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistogramBuckets is the number of finite histogram buckets. Bucket i
// covers (2^(i-1), 2^i] (bucket 0 covers (-inf, 1]); one extra overflow
// bucket catches values above 2^(HistogramBuckets-1).
const HistogramBuckets = 40

// Histogram is a fixed-bucket power-of-two histogram safe for concurrent
// Observe. The zero value is ready to use; a nil *Histogram is a no-op sink.
// With 40 finite buckets it spans 1..2^39, enough for per-comparison
// num_steps on any series that fits in memory and for latencies up to ~9
// minutes in nanoseconds.
type Histogram struct {
	counts [HistogramBuckets + 1]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// bucketIndex maps a value to its bucket: the smallest i with v <= 2^i
// (clamped to the overflow bucket).
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1)) // ceil(log2(v))
	if i > HistogramBuckets {
		i = HistogramBuckets
	}
	return i
}

// BucketIndex returns the bucket index value v falls in — the inverse of
// BucketBound, shared with the exposition writers so every layer buckets
// identically.
func BucketIndex(v int64) int { return bucketIndex(v) }

// BucketBound returns the inclusive upper bound of bucket i (2^i); the
// overflow bucket has no finite bound and reports -1.
func BucketBound(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= HistogramBuckets {
		return -1
	}
	return int64(1) << uint(i)
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.count.Store(0)
}

// HistogramBucket is one non-empty bucket of a histogram snapshot.
// UpperBound -1 marks the overflow bucket.
type HistogramBucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending bound order.
func (h *Histogram) Buckets() []HistogramBucket {
	if h == nil {
		return nil
	}
	var out []HistogramBucket
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			out = append(out, HistogramBucket{UpperBound: BucketBound(i), Count: c})
		}
	}
	return out
}

// BucketQuantile returns the nearest-rank q-quantile of a histogram snapshot
// (buckets in ascending bound order, as Buckets returns them) at bucket
// resolution: the inclusive upper bound of the bucket holding the
// round(q·count)-th smallest observation, -1 when that is the overflow
// bucket, 0 when there are no observations. Every bucket-resolution quantile
// in the repository goes through here, so two views of the same
// distribution cannot disagree on the bucket.
func BucketQuantile(buckets []HistogramBucket, q float64) int64 {
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range buckets {
		cum += b.Count
		if cum >= rank {
			return b.UpperBound
		}
	}
	return -1
}
