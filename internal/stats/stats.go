// Package stats provides the small statistical helpers the benchmark
// harness uses: summaries over repeated timing samples, compression-ratio
// and speedup arithmetic, and human-readable size formatting.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary describes a set of duration samples.
type Summary struct {
	N      int
	Mean   time.Duration
	StdDev time.Duration
	Min    time.Duration
	Max    time.Duration
	Median time.Duration
}

// Summarize computes a Summary over samples. It returns the zero Summary
// when samples is empty.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := Summary{N: len(samples), Min: samples[0], Max: samples[0]}
	var sum float64
	for _, d := range samples {
		sum += float64(d)
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
	}
	mean := sum / float64(len(samples))
	s.Mean = time.Duration(mean)
	var ss float64
	for _, d := range samples {
		diff := float64(d) - mean
		ss += diff * diff
	}
	if len(samples) > 1 {
		s.StdDev = time.Duration(math.Sqrt(ss / float64(len(samples)-1)))
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Ratio returns compressed/original as a fraction in [0, +inf).
// Following the paper's Table II convention, smaller is better and the
// value is usually rendered as a percentage.
func Ratio(compressed, original int) float64 {
	if original == 0 {
		return 0
	}
	return float64(compressed) / float64(original)
}

// RatioPercent renders Ratio as the paper does: "54.80%".
func RatioPercent(compressed, original int) string {
	return fmt.Sprintf("%.2f%%", Ratio(compressed, original)*100)
}

// Speedup returns base/other, i.e. how many times faster `other` is than
// `base`. Returns +Inf when other is zero and base is not.
func Speedup(base, other time.Duration) float64 {
	if other == 0 {
		if base == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(base) / float64(other)
}

// FormatBytes renders a byte count with binary units (KiB, MiB, ...).
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
