package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryInert(t *testing.T) {
	var r *Registry
	// Every chain off a nil registry must be a no-op, not a panic.
	r.Counter("c_total").Inc()
	r.Counter("c_total").Add(5)
	r.Gauge("g").Set(3)
	r.Gauge("g").Inc()
	r.Gauge("g").Dec()
	r.Histogram("h_seconds").Observe(0.5)
	r.SetHelp("c_total", "help")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Counter("c_total").Value() != 0 || r.Gauge("g").Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if snap := r.Histogram("h_seconds").Snapshot(); snap.Count != 0 || snap.Sum != 0 {
		t.Fatal("nil histogram snapshot must be zero")
	}
	tr := r.Tracer()
	sp := tr.Start("op", "stage")
	sp.SetDevice(1).Annotate("k", "v").End(nil)
	tr.Record(Span{})
	if tr.Spans() != nil || tr.Total() != 0 {
		t.Fatal("nil tracer must be inert")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("culzss_test_total", L("kind", "a"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) resolves to the same series.
	if r.Counter("culzss_test_total", L("kind", "a")) != c {
		t.Fatal("lookup did not return the existing series")
	}
	// Label order must not matter.
	c2 := r.Counter("culzss_multi_total", L("b", "2"), L("a", "1"))
	if r.Counter("culzss_multi_total", L("a", "1"), L("b", "2")) != c2 {
		t.Fatal("label order changed series identity")
	}
	g := r.Gauge("culzss_test_gauge")
	g.Set(7)
	g.Dec()
	g.Add(2)
	if got := g.Value(); got != 8 {
		t.Fatalf("gauge = %d, want 8", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("culzss_h_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 5 {
		t.Fatalf("count = %d", snap.Count)
	}
	wantCum := []uint64{1, 3, 4} // <=0.1, <=1, <=10
	for i, want := range wantCum {
		if snap.Cumulative[i] != want {
			t.Fatalf("bucket %d = %d, want %d", i, snap.Cumulative[i], want)
		}
	}
	if snap.Sum < 56.04 || snap.Sum > 56.06 {
		t.Fatalf("sum = %v", snap.Sum)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("culzss_kind_total")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("culzss_kind_total")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "with space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q must panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestTracerRingAndStageHistogram(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	sp := tr.Start("segment 0", "kernel")
	sp.SetDevice(2).Annotate("retries", "1").End(nil)
	tr.Record(Span{Op: "segment 0", Stage: "frame-emit", Device: -1, Duration: time.Millisecond})

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Stage != "kernel" || spans[0].Device != 2 || spans[0].Err != "" {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != (Label{"retries", "1"}) {
		t.Fatalf("span 0 attrs = %v", spans[0].Attrs)
	}
	// Every ended span observes the stage histogram.
	if snap := r.Histogram(StageSecondsMetric, L("stage", "kernel")).Snapshot(); snap.Count != 1 {
		t.Fatalf("stage histogram count = %d", snap.Count)
	}
	if tr.Total() != 2 {
		t.Fatalf("total = %d", tr.Total())
	}
}

func TestTracerRingWraps(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	n := defaultTraceCap + 10
	for i := 0; i < n; i++ {
		tr.Record(Span{Op: "op", Stage: "s", Device: i})
	}
	spans := tr.Spans()
	if len(spans) != defaultTraceCap {
		t.Fatalf("retained = %d, want %d", len(spans), defaultTraceCap)
	}
	// Oldest retained span is number n-cap; newest is n-1.
	if spans[0].Device != n-defaultTraceCap || spans[len(spans)-1].Device != n-1 {
		t.Fatalf("ring order wrong: first=%d last=%d", spans[0].Device, spans[len(spans)-1].Device)
	}
	if tr.Total() != int64(n) {
		t.Fatalf("total = %d", tr.Total())
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	// Race-safety smoke: hammer every instrument kind from many
	// goroutines while snapshots and expositions run concurrently.
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("culzss_conc_total").Inc()
				r.Gauge("culzss_conc_gauge").Add(1)
				r.Histogram("culzss_conc_seconds").Observe(float64(i) / 1000)
				sp := r.Tracer().Start("op", "stage")
				sp.End(nil)
			}
		}(g)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				_ = r.Histogram("culzss_conc_seconds").Snapshot()
				_ = r.Tracer().Spans()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("culzss_conc_total").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
}
