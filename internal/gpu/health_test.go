package gpu

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/faults"
	"culzss/internal/health"
)

// deadDevice returns a device whose every launch fails.
func deadDevice() *cudasim.Device {
	d := cudasim.FermiGTX480()
	d.LaunchHook = func(ctx context.Context, kernel string) error {
		return errors.New("injected: device fell off the bus")
	}
	return d
}

// hangDevice returns a device whose every launch hangs until the
// caller's context is cancelled — the wedged-kernel failure mode. The
// hang goes through the fault-injection layer's latency rule so the
// production plumbing (hook -> FaultCtx -> timer vs ctx) is what the
// watchdog actually cuts.
func hangDevice(seed int64) *cudasim.Device {
	d := cudasim.FermiGTX480()
	inj := faults.New(seed).Hang(faults.SiteLaunch, time.Hour)
	d.LaunchHook = inj.LaunchHook()
	return d
}

// --- multi-GPU supervised dispatch -------------------------------------

func TestMultiGPUSupervisedSurvivesDeadDevice(t *testing.T) {
	input := datasets.CFiles(96<<10, 31)
	want, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}

	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour})

	got, rep, err := CompressV1MultiGPU(input, Options{Health: sup}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("supervised multi-GPU container differs from healthy single-device output")
	}
	if rep.Redispatched == 0 {
		t.Fatalf("no redispatch recorded: %+v", rep)
	}
	if rep.BreakerOpens == 0 || rep.Quarantined != 1 {
		t.Fatalf("breaker bookkeeping: %+v", rep)
	}
	if rep.DegradedShards != 0 {
		t.Fatalf("healthy sibling available, yet %d shards degraded", rep.DegradedShards)
	}
	if sup.State(0) != health.Open {
		t.Fatalf("dead device state %v, want open", sup.State(0))
	}
	out, _, err := Decompress(got, Options{})
	if err != nil || !bytes.Equal(out, input) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestMultiGPUSupervisedWatchdogCutsHungDevice(t *testing.T) {
	input := datasets.CFiles(64<<10, 32)
	want, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}

	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: hangDevice(faults.PinnedSeed(7))},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour, Deadline: 2 * time.Second})

	start := time.Now()
	got, rep, err := CompressV1MultiGPU(input, Options{Health: sup}, 2)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("container differs from healthy single-device output")
	}
	if rep.TimedOut == 0 {
		t.Fatalf("hung launch was not watchdog-cut: %+v", rep)
	}
	// The hang is injected at one hour; completion in test time proves
	// the watchdog cut it at its deadline, not the test runner's.
	if elapsed > 30*time.Second {
		t.Fatalf("run took %v; the hang leaked past the watchdog", elapsed)
	}
	var timedOut bool
	for _, ev := range sup.Events() {
		if ev.To == health.Open && strings.Contains(ev.Cause, "watchdog timeout") {
			timedOut = true
		}
	}
	if !timedOut {
		t.Fatalf("logbook lacks a watchdog-caused open: %v", sup.Events())
	}
}

func TestMultiGPUSupervisedChaosMix(t *testing.T) {
	// The acceptance scenario: one device fails every launch, one hangs;
	// only the third is healthy. Output must match the healthy
	// single-device container exactly.
	input := datasets.DEMap(96<<10, 33)
	want, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: hangDevice(faults.PinnedSeed(7))},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour, Deadline: 2 * time.Second})

	got, rep, err := CompressV1MultiGPU(input, Options{Health: sup}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chaos-mix container differs from healthy output")
	}
	if rep.Redispatched == 0 || rep.TimedOut == 0 || rep.Quarantined != 2 {
		t.Fatalf("chaos counters: %+v", rep)
	}
}

func TestMultiGPUAllDevicesSickDegradesToCPU(t *testing.T) {
	input := datasets.CFiles(48<<10, 34)
	want, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: deadDevice()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour})

	got, rep, err := CompressV1MultiGPU(input, Options{Health: sup}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded container differs from GPU output (CPU fallback must be byte-identical)")
	}
	if rep.DegradedShards == 0 {
		t.Fatalf("expected degraded shards with the whole pool dead: %+v", rep)
	}
	if len(rep.PerDevice) != 0 {
		t.Fatalf("no device completed a shard, yet PerDevice has %d entries", len(rep.PerDevice))
	}
	snap := sup.Snapshot()
	if snap.Quarantined != 2 {
		t.Fatalf("pool snapshot: %+v", snap)
	}
}

func TestMultiGPUQuarantinedDeviceReprobes(t *testing.T) {
	// A device that fails its first two launches then recovers: the
	// breaker opens, quarantine elapses, a half-open probe succeeds and
	// the device rejoins the pool.
	flaky := cudasim.FermiGTX480()
	inj := faults.New(faults.PinnedSeed(7)).FailFirst(faults.SiteLaunch, 2)
	flaky.LaunchHook = inj.LaunchHook()
	sup := health.NewSupervisor([]health.DeviceSlot{{Device: flaky}},
		health.Policy{Threshold: 1, OpenFor: 10 * time.Millisecond})

	input := datasets.CFiles(16<<10, 35)
	want, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First run: the only device fails, opens, and the shard degrades.
	got, rep, err := CompressV1MultiGPU(input, Options{Health: sup}, 1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("first run: err=%v identical=%v", err, bytes.Equal(got, want))
	}
	if rep.DegradedShards != 1 {
		t.Fatalf("first run should degrade: %+v", rep)
	}
	time.Sleep(20 * time.Millisecond) // quarantine elapses
	// Second run probes the recovered device (injection budget spent on
	// run one's attempt + the ladder's retry) and closes the breaker.
	for i := 0; i < 3 && sup.State(0) != health.Closed; i++ {
		got, _, err = CompressV1MultiGPU(input, Options{Health: sup}, 1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reprobe run %d: err=%v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sup.State(0) != health.Closed {
		t.Fatalf("recovered device state %v, want closed; events: %v", sup.State(0), sup.Events())
	}
	var sawHalfOpen bool
	for _, ev := range sup.Events() {
		if ev.To == health.HalfOpen {
			sawHalfOpen = true
		}
	}
	if !sawHalfOpen {
		t.Fatalf("logbook lacks half-open transition: %v", sup.Events())
	}
}

func TestMultiGPUCancelBetweenShards(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	input := datasets.CFiles(32<<10, 36)
	_, _, err := CompressV1MultiGPU(input, Options{Context: ctx}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// --- hybrid -------------------------------------------------------------

func TestHybridAutoSplitSurfacesProbeError(t *testing.T) {
	// The probe's CompressV1 is the first launch; FailFirst(1) kills
	// exactly it. The run itself must still succeed (probe is advisory)
	// with an all-GPU split and the failure surfaced in the report.
	inj := faults.New(faults.PinnedSeed(7)).FailFirst(faults.SiteLaunch, 1)
	input := datasets.CFiles(48<<10, 37)
	cont, rep, err := CompressV1Hybrid(input, Options{Injector: inj}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProbeErr == "" {
		t.Fatal("probe failure was swallowed: ProbeErr empty")
	}
	if !strings.Contains(rep.ProbeErr, "gpu probe") {
		t.Fatalf("ProbeErr = %q, want the gpu probe named", rep.ProbeErr)
	}
	if rep.CPUFraction != 0 {
		t.Fatalf("failed probe must default to all-GPU, got fraction %v", rep.CPUFraction)
	}
	out, _, err := Decompress(cont, Options{})
	if err != nil || !bytes.Equal(out, input) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestHybridSupervisedDegradesGPUShare(t *testing.T) {
	input := datasets.CFiles(64<<10, 38)
	want, _, err := CompressV1Hybrid(input, Options{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sup := health.NewSupervisor([]health.DeviceSlot{{Device: deadDevice()}},
		health.Policy{Threshold: 1, OpenFor: time.Hour})
	got, rep, err := CompressV1Hybrid(input, Options{Health: sup}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GPUDegraded {
		t.Fatalf("dead pool: GPUDegraded = false, report %+v", rep)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded hybrid container differs from healthy output")
	}
}

func TestHybridCancelBetweenChunks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	input := datasets.CFiles(64<<10, 39)
	_, _, err := CompressV1Hybrid(input, Options{Context: ctx}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// --- streamed -----------------------------------------------------------

func TestStreamedSupervisedSurvivesDeadDevice(t *testing.T) {
	input := datasets.CFiles(96<<10, 40)
	want, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour})
	got, _, err := CompressV1Streamed(input, Options{Health: sup}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("supervised streamed container differs from plain V1")
	}
	if sup.Snapshot().Redispatched == 0 {
		t.Fatal("dead device never triggered a redispatch")
	}
}
