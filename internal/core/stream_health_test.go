package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/faults"
	"culzss/internal/gpu"
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

// hangDevice returns a device whose every launch hangs until its context
// is cancelled, via the fault layer's latency rule.
func hangDevice(seed int64) *cudasim.Device {
	d := cudasim.FermiGTX480()
	inj := faults.New(seed).Hang(faults.SiteLaunch, time.Hour)
	d.LaunchHook = inj.LaunchHook()
	return d
}

// writeAll dribbles input through w in odd-sized writes.
func writeAll(t *testing.T, w *Writer, input []byte) {
	t.Helper()
	for off := 0; off < len(input); {
		n := 7777
		if off+n > len(input) {
			n = len(input) - off
		}
		if _, err := w.Write(input[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
}

// decodeStream round-trips a framed stream back to plaintext.
func decodeStream(t *testing.T, stream []byte) []byte {
	t.Helper()
	r, err := NewReader(bytes.NewReader(stream), Params{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// --- supervised streaming ----------------------------------------------

func TestWriterSupervisedChaosStream(t *testing.T) {
	// The acceptance scenario on the streaming path: a pool where one
	// device fails every launch and another hangs; the stream must
	// complete byte-identical to the healthy single-device stream, with
	// the supervisor's counters visible through Stats.
	input := datasets.CFiles(300<<10, 51)
	so := StreamOptions{Codec: "v1", SegmentSize: 64 << 10}

	var healthy bytes.Buffer
	hw := NewWriterOptions(&healthy, Params{HostWorkers: 2}, so)
	writeAll(t, hw, input)
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}

	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: hangDevice(faults.PinnedSeed(7))},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: 50 * time.Millisecond, Deadline: 2 * time.Second})

	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 2, Health: sup}, so)
	writeAll(t, w, input)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(buf.Bytes(), healthy.Bytes()) {
		t.Fatal("supervised chaos stream differs from healthy stream")
	}
	if got := decodeStream(t, buf.Bytes()); !bytes.Equal(got, input) {
		t.Fatal("round trip mismatch")
	}

	st := w.Stats()
	if st.Redispatched == 0 {
		t.Fatalf("stats lack redispatches: %+v", st)
	}
	if st.TimedOut == 0 {
		t.Fatalf("hung device never watchdog-cut: %+v", st)
	}
	if st.BreakerOpens == 0 {
		t.Fatalf("no breaker opened: %+v", st)
	}
	// The logbook must show the full quarantine cycle: Open (the sick
	// devices tripping) and HalfOpen (the 50ms quarantine elapsing and a
	// re-probe being admitted while later segments flow).
	var sawOpen, sawHalfOpen bool
	for _, ev := range sup.Events() {
		switch ev.To {
		case health.Open:
			sawOpen = true
		case health.HalfOpen:
			sawHalfOpen = true
		}
	}
	if !sawOpen || !sawHalfOpen {
		t.Fatalf("logbook lacks open/half-open cycle: %v", sup.Events())
	}
}

func TestWriterSupervisedAllDeadDegrades(t *testing.T) {
	input := datasets.CFiles(150<<10, 52)
	so := StreamOptions{Codec: "v1", SegmentSize: 64 << 10, Retry: RetryPolicy{MaxAttempts: 1}}

	var healthy bytes.Buffer
	hw := NewWriterOptions(&healthy, Params{HostWorkers: 2}, so)
	writeAll(t, hw, input)
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}

	sup := health.NewPool(deadDevice(), 2, health.Policy{Threshold: 1, OpenFor: time.Hour})
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 2, Health: sup}, so)
	writeAll(t, w, input)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), healthy.Bytes()) {
		t.Fatal("fully-degraded stream differs from healthy stream")
	}
	st := w.Stats()
	if st.Degraded == 0 || st.Quarantined != 2 {
		t.Fatalf("stats: %+v, want degraded segments and a fully quarantined pool", st)
	}
}

// TestCompressOneShotSupervisedDegrade: a one-shot call on either GPU
// codec rides the supervised pool; with every device dead it opens each
// breaker and degrades to the codec's byte-identical host twin.
func TestCompressOneShotSupervisedDegrade(t *testing.T) {
	input := datasets.DEMap(64<<10, 53)
	for _, tc := range []struct {
		name string
		twin func([]byte, gpu.Options) ([]byte, error)
	}{
		{"v1", gpu.CompressV1CPU},
		{"v2", gpu.CompressV2CPU},
	} {
		want, err := tc.twin(input, gpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sup := health.NewPool(deadDevice(), 2, health.Policy{Threshold: 1, OpenFor: time.Hour})
		got, rep, err := Compress(input, tc.name, Params{Health: sup})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep != nil {
			t.Fatalf("%s: degraded one-shot call returned a device report", tc.name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: supervised one-shot container differs from the host twin", tc.name)
		}
		if opens := sup.Snapshot().BreakerOpens; opens != 2 {
			t.Fatalf("%s: pool recorded %d breaker opens, want 2", tc.name, opens)
		}
		out, err := Decompress(got, Params{})
		if err != nil || !bytes.Equal(out, input) {
			t.Fatalf("%s: round trip: %v", tc.name, err)
		}
	}
}

// --- admission control and per-segment deadline -------------------------

func TestWriterAdmissionBound(t *testing.T) {
	input := datasets.HighlyCompressible(2<<20, 54)
	const seg = 64 << 10
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 8},
		StreamOptions{Codec: "cpu", SegmentSize: seg, MaxInFlight: 2})
	writeAll(t, w, input)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// cap(pending)+2 segments may exist at once: MaxInFlight queued for
	// emission, one held by the emitter awaiting its result, and one
	// mid-handoff in a worker — the same O(SegmentSize x bound) formula
	// the bounded-memory test asserts, with MaxInFlight as the bound
	// instead of HostWorkers.
	if limit := (2 + 2) * seg; w.maxInFlight() > limit {
		t.Fatalf("in-flight high water %d exceeds admission bound %d", w.maxInFlight(), limit)
	}
	if got := decodeStream(t, buf.Bytes()); !bytes.Equal(got, input) {
		t.Fatal("round trip mismatch")
	}
}

func TestWriterSegmentDeadlineDegrades(t *testing.T) {
	// Every launch hangs and there is no supervisor: the per-segment
	// deadline is the only thing standing between the stream and a
	// wedge. Expiry must degrade the segment to the CPU encoder, not
	// fail the stream.
	input := datasets.CFiles(100<<10, 55)
	var buf bytes.Buffer
	start := time.Now()
	w := NewWriterOptions(&buf, Params{Device: hangDevice(faults.PinnedSeed(7)), HostWorkers: 2},
		StreamOptions{
			Codec:           "v1",
			SegmentSize:     64 << 10,
			SegmentDeadline: 100 * time.Millisecond,
			Retry:           RetryPolicy{MaxAttempts: 2},
		})
	writeAll(t, w, input)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("stream took %v; hung launches leaked past the segment deadline", elapsed)
	}
	if st := w.Stats(); st.Degraded == 0 {
		t.Fatalf("stats: %+v, want every segment degraded", st)
	}
	if got := decodeStream(t, buf.Bytes()); !bytes.Equal(got, input) {
		t.Fatal("round trip mismatch")
	}
}

// --- graceful drain ------------------------------------------------------

func TestWriterDrainOnCancelEmitsValidTrailer(t *testing.T) {
	// Accept a few segments plus a partial tail, cancel, then Close: the
	// drain mode must still compress everything accepted (degrading off
	// the now-cancelled GPU path) and emit a trailer covering it.
	input := datasets.CFiles(200<<10, 56)
	const seg = 64 << 10
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 2}, StreamOptions{
		Codec:         "v1",
		SegmentSize:   seg,
		Context:       ctx,
		DrainOnCancel: true,
		Retry:         RetryPolicy{MaxAttempts: 1},
	})
	writeAll(t, w, input) // 3 full segments + a partial tail buffered
	cancel()
	// Admission stops: new bytes are refused with the context's error.
	if _, err := w.Write([]byte("more")); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel Write err = %v, want context.Canceled", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("drain Close: %v", err)
	}
	if got := decodeStream(t, buf.Bytes()); !bytes.Equal(got, input) {
		t.Fatalf("drained stream serves %d bytes, want the %d accepted", len(got), len(input))
	}
}

func TestWriterDrainFinishesInFlightUnderDeadDevice(t *testing.T) {
	// Harder drain: the GPU is dead AND the context is cancelled before
	// Close; the in-flight segments must still complete via the CPU
	// fallback running outside the cancelled context.
	input := datasets.CFiles(130<<10, 57)
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{Device: deadDevice(), HostWorkers: 2}, StreamOptions{
		Codec:         "v1",
		SegmentSize:   64 << 10,
		Context:       ctx,
		DrainOnCancel: true,
		Retry:         RetryPolicy{MaxAttempts: 1},
	})
	writeAll(t, w, input)
	cancel()
	if err := w.Close(); err != nil {
		t.Fatalf("drain Close: %v", err)
	}
	if st := w.Stats(); st.Degraded == 0 {
		t.Fatalf("stats: %+v, want degraded segments", st)
	}
	if got := decodeStream(t, buf.Bytes()); !bytes.Equal(got, input) {
		t.Fatal("drained stream does not serve the accepted bytes")
	}
}

func TestWriterDefaultCancelStillFailsFast(t *testing.T) {
	// Without DrainOnCancel the PR-2 behaviour is preserved: a cancelled
	// context fails the stream.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{}, StreamOptions{Codec: "v1", Context: ctx})
	if _, err := w.Write([]byte("data")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Write err = %v, want context.Canceled", err)
	}
}

// --- soak: sustained FailProb + hang mix must never wedge ----------------

func TestWriterChaosSoak(t *testing.T) {
	// CI's chaos job: a sustained stream over a pool mixing probabilistic
	// launch failures with first-launch hangs, under -race. The assertion
	// is liveness plus byte-exactness: nothing wedges, nothing corrupts.
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	input := datasets.KernelTarball(400<<10, 58)
	so := StreamOptions{Codec: "v1", SegmentSize: 32 << 10, Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}}

	var healthy bytes.Buffer
	hw := NewWriterOptions(&healthy, Params{HostWorkers: 2}, so)
	writeAll(t, hw, input)
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}

	flaky := cudasim.FermiGTX480()
	flaky.LaunchHook = faults.New(faults.PinnedSeed(7)).FailProb(faults.SiteLaunch, 0.4).LaunchHook()
	sticky := cudasim.FermiGTX480()
	sticky.LaunchHook = faults.New(faults.PinnedSeed(7)+1).HangFirst(faults.SiteLaunch, 2, time.Hour).LaunchHook()

	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: flaky},
		{Device: sticky},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 2, OpenFor: 30 * time.Millisecond, Deadline: 2 * time.Second})

	start := time.Now()
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 3, Health: sup}, so)
	writeAll(t, w, input)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Fatalf("soak took %v — something is close to wedged", elapsed)
	}
	if !bytes.Equal(buf.Bytes(), healthy.Bytes()) {
		t.Fatal("soak stream differs from healthy stream")
	}
	if got := decodeStream(t, buf.Bytes()); !bytes.Equal(got, input) {
		t.Fatal("soak round trip mismatch")
	}
	t.Logf("soak stats: %+v", w.Stats())
	t.Logf("soak events: %d breaker transitions", len(sup.Events()))
}
