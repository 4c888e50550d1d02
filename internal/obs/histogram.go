// Package obs is the suite's observability layer: latency histograms with
// quantile estimation, Chrome trace_event export, the machine-readable
// kernel-report schema emitted by cmd/rtrbench and cmd/rtrbenchd, a live
// counter registry, and a pprof/metrics debug server.
//
// The design follows the exposition layers of real-time benchmark frameworks
// (RT-Bench's per-job latency distributions and uniform machine-readable
// output, RobotPerf's vendor-agnostic exportable metrics): measurement lives
// in internal/profile, while this package owns representation and export.
// obs deliberately imports nothing above the standard library so that
// profile, the public rtrbench API, and both CLIs can all depend on it.
package obs

import (
	"math"
	"sort"
	"time"
)

// Histogram bucket layout: fixed geometric buckets, ten per decade, from
// 100ns up to ~10^4 seconds. Fixed buckets (as opposed to growable HDR-style
// layouts) keep Record allocation-free after construction, which the harness
// needs to preserve the paper's "virtually zero effect on performance"
// contract when instrumentation is on but cheap.
const (
	histBuckets      = 110
	histMinNs        = 100 // lower bound of bucket 0, nanoseconds
	bucketsPerDecade = 10
)

// bucketBounds[i] is the inclusive lower bound of bucket i; bucket i covers
// [bucketBounds[i], bucketBounds[i+1]). Values below histMinNs clamp into
// bucket 0; values beyond the last bound clamp into the last bucket.
var bucketBounds = func() [histBuckets + 1]int64 {
	var b [histBuckets + 1]int64
	for i := range b {
		b[i] = int64(math.Round(float64(histMinNs) * math.Pow(10, float64(i)/bucketsPerDecade)))
	}
	return b
}()

// Histogram is a fixed-bucket log-scale latency histogram. It records
// durations with ~26% worst-case relative quantile error (one bucket width)
// while keeping exact count, sum, min, and max. The zero value is NOT ready
// to use through pointer methods on a nil receiver; call NewHistogram.
// Histogram is not safe for concurrent use; shard and Merge instead (see
// profile.Sharded).
type Histogram struct {
	counts [histBuckets]int64
	count  int64
	sum    int64 // nanoseconds
	min    int64 // nanoseconds; valid when count > 0
	max    int64 // nanoseconds; valid when count > 0
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketFor returns the bucket index covering ns.
func bucketFor(ns int64) int {
	if ns < histMinNs {
		return 0
	}
	// Binary search over the precomputed bounds: ~7 compares, no math.Log
	// in the record path.
	i := sort.Search(histBuckets, func(i int) bool { return bucketBounds[i+1] > ns })
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Record adds one duration sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	if h.count == 0 || ns < h.min {
		h.min = ns
	}
	if h.count == 0 || ns > h.max {
		h.max = ns
	}
	h.count++
	h.sum += ns
	h.counts[bucketFor(ns)]++
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Mean returns the arithmetic mean rounded to the nearest nanosecond, half
// up (0 when empty). Plain integer division truncates, which biases
// sub-microsecond phase means low — e.g. samples of 1ns and 2ns would report
// 1ns instead of 2ns.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration((h.sum + h.count/2) / h.count)
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]). The estimate
// is the geometric midpoint of the bucket holding the target rank, clamped
// to the exact observed [min, max] so single-sample and single-bucket
// histograms report exact values. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	// Nearest-rank (1-based) target.
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			lo, hi := bucketBounds[i], bucketBounds[i+1]
			// sqrt(lo)*sqrt(hi), not sqrt(lo*hi): the top-decade bounds
			// reach ~1e13ns, so the product exceeds 2^53 and loses
			// precision in the float64 conversion.
			mid := int64(math.Sqrt(float64(lo)) * math.Sqrt(float64(hi)))
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return time.Duration(mid)
		}
	}
	return time.Duration(h.max)
}

// Merge folds other's samples into h. Merge is associative and commutative
// up to the exactness of min/max/sum (bucket counts add exactly).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
}

// Reset clears the histogram for reuse without reallocating.
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary is the fixed set of step-latency statistics the suite reports:
// the RT-Bench-style per-job latency distribution view plus deadline-miss
// accounting. Deadline and Misses are filled by the caller that owns the
// deadline (the histogram itself only sees durations).
type Summary struct {
	Count    int64
	Min      time.Duration
	Mean     time.Duration
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Max      time.Duration
	Deadline time.Duration // 0 = no deadline configured
	Misses   int64         // samples exceeding Deadline
}

// Summary computes the distribution view of the histogram. Deadline and
// Misses are left zero.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.count,
		Min:   h.Min(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}
