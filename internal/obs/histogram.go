package obs

import (
	"math"
	"sort"
	"sync"
)

// DefBuckets are the default histogram bounds, in seconds: the pipeline's
// stage durations span microsecond transfers to multi-second degraded
// segments.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram accumulates float64 observations into fixed buckets
// (Prometheus-style cumulative on exposition). All methods are safe for
// concurrent use and inert on a nil receiver.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []uint64  // per-bucket (non-cumulative), len(bounds)+1
	count  uint64
	sum    float64
}

func newHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// HistSnapshot is a point-in-time view of a histogram.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Cumulative[i] counts samples
	// <= Bounds[i]. Count covers everything including the +Inf bucket.
	Bounds     []float64
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// Snapshot returns a consistent copy of the histogram's state. The zero
// snapshot is returned for a nil receiver.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistSnapshot{
		Bounds:     append([]float64(nil), h.bounds...),
		Cumulative: make([]uint64, len(h.bounds)),
		Count:      h.count,
		Sum:        h.sum,
	}
	var run uint64
	for i := range h.bounds {
		run += h.counts[i]
		snap.Cumulative[i] = run
	}
	return snap
}
