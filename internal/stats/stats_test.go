package stats

import (
	"math"
	"testing"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]time.Duration{5 * time.Second})
	if s.N != 1 || s.Mean != 5*time.Second || s.StdDev != 0 {
		t.Fatalf("bad single summary: %+v", s)
	}
	if s.Min != 5*time.Second || s.Max != 5*time.Second || s.Median != 5*time.Second {
		t.Fatalf("bad single summary extremes: %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	samples := []time.Duration{2, 4, 4, 4, 5, 5, 7, 9} // classic stddev example
	s := Summarize(samples)
	if s.Mean != 5 {
		t.Fatalf("Mean = %d, want 5", s.Mean)
	}
	// Sample stddev of that set is sqrt(32/7) ~= 2.138; Summary stores
	// durations in integer nanoseconds, so expect the truncated value.
	want := time.Duration(math.Sqrt(32.0 / 7.0))
	if s.StdDev != want {
		t.Fatalf("StdDev = %v, want %v", s.StdDev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %d/%d", s.Min, s.Max)
	}
	if s.Median != 4 { // (4+5)/2 rounds down in integer ns, values are 4 and 5 -> 4.5 -> 4
		t.Fatalf("Median = %d", s.Median)
	}
}

func TestSummarizeMedianOdd(t *testing.T) {
	s := Summarize([]time.Duration{9, 1, 5})
	if s.Median != 5 {
		t.Fatalf("Median = %d, want 5", s.Median)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(50, 100); got != 0.5 {
		t.Fatalf("Ratio = %v", got)
	}
	if got := Ratio(10, 0); got != 0 {
		t.Fatalf("Ratio with zero original = %v", got)
	}
	if got := RatioPercent(548, 1000); got != "54.80%" {
		t.Fatalf("RatioPercent = %q", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(10*time.Second, 2*time.Second); got != 5 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := Speedup(0, 0); got != 1 {
		t.Fatalf("Speedup(0,0) = %v", got)
	}
	if got := Speedup(time.Second, 0); !math.IsInf(got, 1) {
		t.Fatalf("Speedup(x,0) = %v, want +Inf", got)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{1024, "1.0 KiB"},
		{1536, "1.5 KiB"},
		{1 << 20, "1.0 MiB"},
		{128 << 20, "128.0 MiB"},
		{1 << 30, "1.0 GiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
