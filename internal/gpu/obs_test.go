package gpu

import (
	"bytes"
	"testing"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/health"
	"culzss/internal/obs"
)

// These tests pin the GPU layer's half of the reconciliation invariant:
// a fresh registry's counters must equal the run reports exactly,
// because each obs increment shares a code site with the native one.

func TestMultiGPUReportReconcilesWithRegistry(t *testing.T) {
	input := datasets.CFiles(96<<10, 41)

	reg := obs.NewRegistry()
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour, Obs: reg})

	got, rep, err := CompressV1MultiGPU(input, Options{Health: sup, Obs: reg}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(got, Options{})
	if err != nil || !bytes.Equal(out, input) {
		t.Fatalf("round trip: %v", err)
	}

	shards := len(rep.PerDevice) + rep.DegradedShards
	checks := []struct {
		series string
		want   int
	}{
		{"culzss_multigpu_shards_total", shards},
		{"culzss_multigpu_degraded_shards_total", rep.DegradedShards},
		// The supervisor and registry are both fresh, so the report's
		// per-run deltas equal the lifetime totals.
		{"culzss_health_redispatches_total", rep.Redispatched},
		{"culzss_health_watchdog_timeouts_total", rep.TimedOut},
		{"culzss_health_breaker_opens_total", rep.BreakerOpens},
	}
	for _, c := range checks {
		if got := reg.Counter(c.series).Value(); got != int64(c.want) {
			t.Errorf("%s = %d, MultiGPUReport says %d", c.series, got, c.want)
		}
	}
	if got := reg.Gauge("culzss_health_quarantined_devices").Value(); got != int64(rep.Quarantined) {
		t.Errorf("culzss_health_quarantined_devices = %d, MultiGPUReport says %d", got, rep.Quarantined)
	}
	if rep.Redispatched == 0 || rep.BreakerOpens == 0 {
		t.Fatalf("dead device produced no redispatch/open; reconciliation proved nothing: %+v", rep)
	}
	// Each shard that completed on a device launched the V1 kernel once.
	if got := reg.Counter("culzss_gpu_launches_total", obs.L("kernel", "culzss_v1")).Value(); got != int64(len(rep.PerDevice)) {
		t.Errorf("culzss_gpu_launches_total{kernel=culzss_v1} = %d, report has %d device shards", got, len(rep.PerDevice))
	}
}

func TestMultiGPUDegradedShardsReconcile(t *testing.T) {
	// Whole pool dead: every shard degrades, and the degraded counters
	// must say exactly that.
	input := datasets.CFiles(64<<10, 42)
	reg := obs.NewRegistry()
	sup := health.NewPool(deadDevice(), 2, health.Policy{Threshold: 1, OpenFor: time.Hour, Obs: reg})

	got, rep, err := CompressV1MultiGPU(input, Options{Health: sup, Obs: reg}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(got, Options{})
	if err != nil || !bytes.Equal(out, input) {
		t.Fatalf("round trip: %v", err)
	}
	if rep.DegradedShards == 0 {
		t.Fatalf("dead pool degraded nothing: %+v", rep)
	}
	if got := reg.Counter("culzss_multigpu_degraded_shards_total").Value(); got != int64(rep.DegradedShards) {
		t.Errorf("degraded shards counter %d, report %d", got, rep.DegradedShards)
	}
	if got := reg.Counter("culzss_dispatch_degraded_total").Value(); got != int64(rep.DegradedShards) {
		t.Errorf("dispatch degraded counter %d, report %d", got, rep.DegradedShards)
	}
	if got := reg.Gauge("culzss_health_quarantined_devices").Value(); got != 2 {
		t.Errorf("quarantined gauge %d, want the whole pool (2)", got)
	}
}

func TestObserveReportStageHistograms(t *testing.T) {
	// One plain V1 run: the launch counter, the modeled stage histograms,
	// and the dispatch-free report path.
	input := datasets.CFiles(32<<10, 43)
	reg := obs.NewRegistry()
	_, rep, err := CompressV1(input, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("culzss_gpu_launches_total", obs.L("kernel", "culzss_v1")).Value(); got != 1 {
		t.Fatalf("launch counter = %d, want 1", got)
	}
	for _, stage := range []string{"kernel", "h2d", "d2h"} {
		snap := reg.Histogram(SimStageSecondsMetric, obs.L("stage", stage)).Snapshot()
		if snap.Count != 1 {
			t.Errorf("sim histogram stage=%s count %d, want 1", stage, snap.Count)
		}
	}
	// The modeled kernel time lands in the histogram sum exactly.
	snap := reg.Histogram(SimStageSecondsMetric, obs.L("stage", "kernel")).Snapshot()
	if want := rep.Launch.KernelTime.Seconds(); snap.Sum != want {
		t.Errorf("kernel histogram sum %g, report says %g", snap.Sum, want)
	}
}

func TestDispatchSpanAnnotations(t *testing.T) {
	// A dead home device forces a redispatch; the dispatch span must
	// carry the attempt count and land on the healthy device's id.
	input := datasets.CFiles(32<<10, 44)
	reg := obs.NewRegistry()
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour, Obs: reg})

	_, err := CompressSupervised(engineV1{}, input, Options{Health: sup, Obs: reg}, RetryPolicy{}, 0, "probe")
	if err != nil {
		t.Fatal(err)
	}
	var dispatch *obs.Span
	for _, sp := range reg.Tracer().Spans() {
		if sp.Stage == "dispatch" && sp.Op == "probe" {
			s := sp
			dispatch = &s
		}
	}
	if dispatch == nil {
		t.Fatal("no dispatch span recorded for op \"probe\"")
	}
	if dispatch.Device != 1 {
		t.Errorf("dispatch span device %d, want the healthy sibling 1", dispatch.Device)
	}
	var attempts string
	for _, l := range dispatch.Attrs {
		if l.Key == "attempts" {
			attempts = l.Value
		}
	}
	if attempts == "" {
		t.Errorf("dispatch span lacks an attempts annotation: %v", dispatch.Attrs)
	}
	if dispatch.Err != "" {
		t.Errorf("successful dispatch span carries error %q", dispatch.Err)
	}
	// Kernel spans: one per device attempt, including the failed one.
	var kernels int
	for _, sp := range reg.Tracer().Spans() {
		if sp.Stage == "kernel" {
			kernels++
		}
	}
	if kernels < 2 {
		t.Errorf("want >= 2 kernel spans (failed + redispatched attempt), got %d", kernels)
	}
}
