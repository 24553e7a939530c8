package core

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/faults"
	"culzss/internal/health"
	"culzss/internal/obs"
)

// The invariant these tests pin down: every observability counter is
// incremented at the same code site as the native counter it mirrors, so
// a fresh registry's totals must equal Writer.Stats() EXACTLY — not
// approximately, not eventually — even under the chaos configurations of
// the fault-injection and device-health PRs. A monitoring stack alerting
// on culzss_writer_degraded_total depends on precisely this.

// counterVal reads a label-free counter, tolerating one that was never
// created (a run with no degrades never touches the degraded counter).
func counterVal(reg *obs.Registry, name string, labels ...obs.Label) int64 {
	return reg.Counter(name, labels...).Value()
}

func TestWriterMetricsReconcileUnderChaos(t *testing.T) {
	// The TestWriterChaosSoak pool: a probabilistically flaky device, a
	// sticky device that hangs its first two launches, and a healthy
	// sibling — retries, redispatches, watchdog timeouts, breaker opens,
	// and (with MaxAttempts 2) possible degrades all occur.
	input := datasets.KernelTarball(200<<10, 58)
	so := StreamOptions{Codec: "v1", SegmentSize: 32 << 10, Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}}

	flaky := cudasim.FermiGTX480()
	flaky.LaunchHook = faults.New(faults.PinnedSeed(7)).FailProb(faults.SiteLaunch, 0.4).LaunchHook()
	sticky := cudasim.FermiGTX480()
	sticky.LaunchHook = faults.New(faults.PinnedSeed(7)+1).HangFirst(faults.SiteLaunch, 2, time.Hour).LaunchHook()

	reg := obs.NewRegistry()
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: flaky},
		{Device: sticky},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 2, OpenFor: 30 * time.Millisecond, Deadline: 300 * time.Millisecond, Obs: reg})

	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 3, Health: sup, Obs: reg}, so)
	writeAll(t, w, input)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := decodeStream(t, buf.Bytes()); !bytes.Equal(got, input) {
		t.Fatal("chaos round trip mismatch")
	}

	// Read Stats() first: it snapshots the supervisor, and the gauge is
	// only moved by the same locked transitions that snapshot ripens.
	st := w.Stats()
	checks := []struct {
		series string
		want   int
	}{
		{"culzss_writer_segments_total", st.Segments},
		{"culzss_writer_retries_total", st.Retries},
		{"culzss_writer_degraded_total", st.Degraded},
		{"culzss_health_watchdog_timeouts_total", st.TimedOut},
		{"culzss_health_redispatches_total", st.Redispatched},
		{"culzss_health_breaker_opens_total", st.BreakerOpens},
	}
	for _, c := range checks {
		if got := counterVal(reg, c.series); got != int64(c.want) {
			t.Errorf("%s = %d, Writer.Stats says %d", c.series, got, c.want)
		}
	}
	if got := reg.Gauge("culzss_health_quarantined_devices").Value(); got != int64(st.Quarantined) {
		t.Errorf("culzss_health_quarantined_devices = %d, Writer.Stats says %d", got, st.Quarantined)
	}
	if got := counterVal(reg, "culzss_writer_bytes_in_total"); got != int64(len(input)) {
		t.Errorf("culzss_writer_bytes_in_total = %d, wrote %d", got, len(input))
	}
	if got := counterVal(reg, "culzss_writer_bytes_out_total"); got <= 0 || got > int64(buf.Len()) {
		t.Errorf("culzss_writer_bytes_out_total = %d, stream is %d bytes", got, buf.Len())
	}
	if st.Retries == 0 && st.Redispatched == 0 {
		t.Fatalf("chaos pool produced no retries or redispatches; the reconciliation proved nothing: %+v", st)
	}
	t.Logf("chaos stats reconciled: %+v", st)

	// The lifecycle spans must cover the whole pipeline: every segment
	// gets read, dispatch, and frame-emit spans, plus one kernel span per
	// device attempt.
	stages := map[string]int{}
	for _, sp := range reg.Tracer().Spans() {
		stages[sp.Stage]++
	}
	for _, stage := range []string{"read", "dispatch", "kernel", "frame-emit"} {
		if stages[stage] == 0 {
			t.Errorf("no %q spans recorded; saw %v", stage, stages)
		}
	}
}

func TestWriterStatsMatchSupervisorSnapshot(t *testing.T) {
	// The quarantined gauge must agree with the supervisor's own
	// Snapshot(): both ride the same locked transition function.
	reg := obs.NewRegistry()
	sup := health.NewPool(deadDevice(), 2, health.Policy{Threshold: 1, OpenFor: time.Hour, Obs: reg})
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 2, Health: sup, Obs: reg},
		StreamOptions{Codec: "v1", SegmentSize: 32 << 10, Retry: RetryPolicy{MaxAttempts: 1}})
	writeAll(t, w, datasets.CFiles(100<<10, 59))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap := sup.Snapshot()
	if got := reg.Gauge("culzss_health_quarantined_devices").Value(); got != int64(snap.Quarantined) {
		t.Fatalf("gauge %d, Snapshot().Quarantined %d", got, snap.Quarantined)
	}
	if snap.Quarantined != 2 {
		t.Fatalf("dead pool not fully quarantined: %+v", snap)
	}
	if got := counterVal(reg, "culzss_writer_degraded_total"); got != int64(w.Stats().Degraded) || got == 0 {
		t.Fatalf("degraded counter %d, stats %d", got, w.Stats().Degraded)
	}
}

func TestReaderMetricsReconcile(t *testing.T) {
	input := datasets.CFiles(150<<10, 60)
	stream, ws := streamWith(t, input, Params{HostWorkers: 2},
		StreamOptions{Codec: "cpu", SegmentSize: 16 << 10})

	reg := obs.NewRegistry()
	r, err := NewReaderOptions(bytes.NewReader(stream), Params{Obs: reg}, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, input) {
		t.Fatal("round trip mismatch")
	}
	if got := counterVal(reg, "culzss_reader_segments_total"); got != int64(ws.Segments) {
		t.Errorf("culzss_reader_segments_total = %d, Writer emitted %d", got, ws.Segments)
	}
	if got := counterVal(reg, "culzss_reader_bytes_out_total"); got != int64(len(input)) {
		t.Errorf("culzss_reader_bytes_out_total = %d, served %d", got, len(input))
	}
	if got := counterVal(reg, "culzss_frames_read_total"); got != 0 {
		// Frame reads are labelled by kind; the label-free series must
		// not exist (guards against accidentally dropping the label).
		t.Errorf("label-free culzss_frames_read_total = %d, want labelled series only", got)
	}
	segFrames := counterVal(reg, "culzss_frames_read_total", obsLabelKindSegment...)
	if segFrames != int64(ws.Segments) {
		t.Errorf(`culzss_frames_read_total{kind="segment"} = %d, want %d`, segFrames, ws.Segments)
	}
}

// obsLabelKindSegment adapts the variadic Label API for counterVal.
var obsLabelKindSegment = []obs.Label{obs.L("kind", "segment")}

func TestReaderSalvageMetrics(t *testing.T) {
	input := datasets.CFiles(64<<10, 61)
	stream, _ := streamWith(t, input, Params{HostWorkers: 1},
		StreamOptions{Codec: "cpu", SegmentSize: 16 << 10})
	damaged := append([]byte{}, stream...)
	damaged[len(damaged)/2] ^= 0x20

	reg := obs.NewRegistry()
	r, err := NewReaderOptions(bytes.NewReader(damaged), Params{Obs: reg}, ReaderOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	nCorrupt := int64(len(r.CorruptSegments()))
	if nCorrupt == 0 {
		t.Fatal("damaged stream recorded no corrupt segments")
	}
	if got := counterVal(reg, "culzss_reader_corrupt_segments_total"); got != nCorrupt {
		t.Errorf("culzss_reader_corrupt_segments_total = %d, reader recorded %d", got, nCorrupt)
	}
	if got := counterVal(reg, "culzss_frames_salvage_resyncs_total"); got != nCorrupt {
		t.Errorf("culzss_frames_salvage_resyncs_total = %d, want %d", got, nCorrupt)
	}
	var skipped int64
	for _, cse := range r.CorruptSegments() {
		skipped += cse.Skipped
	}
	if got := counterVal(reg, "culzss_frames_salvage_skipped_bytes_total"); got != skipped {
		t.Errorf("culzss_frames_salvage_skipped_bytes_total = %d, regions total %d", got, skipped)
	}
}

func TestConcurrentScrapeWhileCompressing(t *testing.T) {
	// The -race test behind the gateway's /metrics endpoint: scrapers
	// hammer the exposition while the Writer's workers, the supervisor,
	// and the tracer all write the same registry.
	input := datasets.KernelTarball(150<<10, 62)
	reg := obs.NewRegistry()
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour, Deadline: 2 * time.Second, Obs: reg})

	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if len(body) > 0 && !strings.HasPrefix(string(body), "#") {
					// Any non-empty exposition starts with a HELP/TYPE
					// comment; anything else means a torn write.
					t.Errorf("scrape does not start with a comment: %q", body[:min(40, len(body))])
					return
				}
			}
		}()
	}

	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 3, Health: sup, Obs: reg},
		StreamOptions{Codec: "v1", SegmentSize: 16 << 10})
	writeAll(t, w, input)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if got := decodeStream(t, buf.Bytes()); !bytes.Equal(got, input) {
		t.Fatal("round trip mismatch")
	}
	st := w.Stats()
	if got := counterVal(reg, "culzss_writer_segments_total"); got != int64(st.Segments) {
		t.Fatalf("after concurrent scraping, segments counter %d != stats %d", got, st.Segments)
	}
}

// TestWriterObsDisabledUnchanged pins the zero-cost-when-nil contract:
// a Writer with no registry behaves identically (same bytes, same
// stats) to one with a registry — observation must never perturb the
// pipeline.
func TestWriterObsDisabledUnchanged(t *testing.T) {
	input := datasets.CFiles(100<<10, 63)
	so := StreamOptions{Codec: "v1", SegmentSize: 32 << 10}

	plain, plainStats := streamWith(t, input, Params{HostWorkers: 2}, so)

	reg := obs.NewRegistry()
	observed, obsStats := streamWith(t, input, Params{HostWorkers: 2, Obs: reg}, so)

	if !bytes.Equal(plain, observed) {
		t.Fatal("observed stream differs from unobserved stream")
	}
	if plainStats != obsStats {
		t.Fatalf("stats diverge: plain %+v, observed %+v", plainStats, obsStats)
	}
	if got := counterVal(reg, "culzss_writer_segments_total"); got != int64(obsStats.Segments) {
		t.Fatalf("observed run counted %d segments, stats say %d", got, obsStats.Segments)
	}
}
