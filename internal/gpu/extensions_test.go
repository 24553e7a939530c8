package gpu

import (
	"bytes"
	"testing"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/lzss"
)

// --- §VII streaming (pipelined copy/execute) ---------------------------

func TestStreamedRoundTripAndEquivalence(t *testing.T) {
	input := datasets.CFiles(96<<10, 21)
	plain, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, streams := range []int{1, 2, 4, 7} {
		cont, rep, err := CompressV1Streamed(input, Options{}, streams)
		if err != nil {
			t.Fatalf("streams=%d: %v", streams, err)
		}
		// The streamed container must be byte-identical to the plain V1
		// container: slicing on chunk boundaries cannot change output.
		if !bytes.Equal(cont, plain) {
			t.Fatalf("streams=%d: container differs from plain V1", streams)
		}
		got, _, err := Decompress(cont, Options{})
		if err != nil || !bytes.Equal(got, input) {
			t.Fatalf("streams=%d: round trip failed: %v", streams, err)
		}
		if rep.SimulatedTotal() <= 0 {
			t.Fatalf("streams=%d: non-positive simulated total", streams)
		}
	}
}

func TestStreamedPipelineOverlaps(t *testing.T) {
	input := datasets.CFiles(256<<10, 22)
	_, seq, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, pip, err := CompressV1Streamed(input, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Slicing regroups warps slightly, so compare with a small tolerance:
	// the pipelined schedule must stay within a few percent of the
	// single-launch span (the strict pipeline-beats-sequential property
	// over identical stages is asserted in TestPipelineScheduleMath).
	seqSpan := seq.H2D + seq.Launch.KernelTime + seq.D2H
	if float64(pip.Launch.KernelTime) > float64(seqSpan)*1.10 {
		t.Fatalf("pipelined span %v far exceeds sequential %v", pip.Launch.KernelTime, seqSpan)
	}
}

func TestStreamedRejectsBadCount(t *testing.T) {
	if _, _, err := CompressV1Streamed([]byte("x"), Options{}, 0); err == nil {
		t.Fatal("accepted zero streams")
	}
	// Validation must run before the empty-input early return: bad stream
	// counts and bad configs error consistently for every input length.
	if _, _, err := CompressV1Streamed(nil, Options{}, 0); err == nil {
		t.Fatal("accepted zero streams on empty input")
	}
}

func TestStreamedValidatesConfigBeforeEmptyReturn(t *testing.T) {
	bad := Options{Config: lzss.Config{Window: 1024, MaxMatch: 66, MinMatch: 2}}
	if _, _, err := CompressV1Streamed([]byte("data"), bad, 2); err == nil {
		t.Fatal("accepted oversized window")
	}
	if _, _, err := CompressV1Streamed(nil, bad, 2); err == nil {
		t.Fatal("accepted oversized window on empty input")
	}
	// A config that overflows the 16-bit token must also fail either way.
	wide := Options{Config: lzss.Config{Window: 128, MaxMatch: 300, MinMatch: 2}}
	if _, _, err := CompressV1Streamed([]byte("data"), wide, 2); err == nil {
		t.Fatal("accepted token-overflowing config")
	}
	if _, _, err := CompressV1Streamed(nil, wide, 2); err == nil {
		t.Fatal("accepted token-overflowing config on empty input")
	}
}

func TestPipelineScheduleMath(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	slices := []cudasim.PipelineStage{
		{H2D: ms(2), Kernel: ms(10), D2H: ms(1)},
		{H2D: ms(2), Kernel: ms(10), D2H: ms(1)},
		{H2D: ms(2), Kernel: ms(10), D2H: ms(1)},
	}
	seq := ms(39) // the three slices' stages back to back
	pip := cudasim.PipelineSchedule(slices)
	// Kernel-bound steady state: ~2 + 3*10 + trailing copies.
	if pip >= seq {
		t.Fatalf("pipeline %v not faster than sequential %v", pip, seq)
	}
	if pip < ms(32) {
		t.Fatalf("pipeline %v impossibly fast (kernel work alone is 30ms)", pip)
	}
	// Single slice degenerates to the sum.
	one := cudasim.PipelineSchedule(slices[:1])
	if one != ms(13) {
		t.Fatalf("single-slice pipeline = %v", one)
	}
	if cudasim.PipelineSchedule(nil) != 0 {
		t.Fatal("empty pipeline not zero")
	}
}

// --- §VII multi-GPU -----------------------------------------------------

func TestMultiGPURoundTrip(t *testing.T) {
	input := datasets.KernelTarball(128<<10, 23)
	for _, n := range []int{1, 2, 4} {
		cont, rep, err := CompressV1MultiGPU(input, Options{}, n)
		if err != nil {
			t.Fatalf("nGPUs=%d: %v", n, err)
		}
		got, _, err := Decompress(cont, Options{})
		if err != nil || !bytes.Equal(got, input) {
			t.Fatalf("nGPUs=%d: round trip failed: %v", n, err)
		}
		if len(rep.PerDevice) < 1 || len(rep.PerDevice) > n {
			t.Fatalf("nGPUs=%d: %d device reports", n, len(rep.PerDevice))
		}
		if rep.SimulatedTotal() <= 0 {
			t.Fatal("non-positive total")
		}
	}
}

func TestMultiGPUOutputMatchesSingle(t *testing.T) {
	input := datasets.CFiles(64<<10, 24)
	single, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := CompressV1MultiGPU(input, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single, multi) {
		t.Fatal("multi-GPU container differs from single-GPU")
	}
}

func TestMultiGPUNoGainWhenKernelIsCheap(t *testing.T) {
	// The paper's §VII observation: their multi-GPU attempt showed no
	// gains; they suspected the per-device thread overhead. The model
	// reproduces it whenever the kernel-span win is smaller than the
	// added dispatch overhead plus the serialized bus — e.g. on the
	// highly-compressible dataset, where V1's kernel is nearly free.
	input := datasets.HighlyCompressible(256<<10, 25)
	_, one, err := CompressV1MultiGPU(input, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, four, err := CompressV1MultiGPU(input, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if four.SimulatedTotal() < one.SimulatedTotal() {
		t.Fatalf("4 GPUs (%v) beat 1 GPU (%v) despite a near-free kernel — overhead model missing",
			four.SimulatedTotal(), one.SimulatedTotal())
	}
	if four.DriverOverhead <= one.DriverOverhead {
		t.Fatal("driver overhead not scaling with device count")
	}
}

func TestMultiGPURejectsBadCount(t *testing.T) {
	if _, _, err := CompressV1MultiGPU([]byte("x"), Options{}, 0); err == nil {
		t.Fatal("accepted zero GPUs")
	}
}

// --- §VII heterogeneous CPU+GPU ------------------------------------------

func TestHybridRoundTripAcrossFractions(t *testing.T) {
	input := datasets.CFiles(96<<10, 26)
	var singleStats lzss.SearchStats
	single, _, err := CompressV1(input, Options{Stats: &singleStats})
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, 0.25, 0.5, 1} {
		var stats lzss.SearchStats
		cont, rep, err := CompressV1Hybrid(input, Options{Stats: &stats}, frac)
		if err != nil {
			t.Fatalf("frac=%v: %v", frac, err)
		}
		// Both shares run the same search, so together they count what
		// one CompressV1 counts.
		if stats != singleStats {
			t.Fatalf("frac=%v: stats %+v, CompressV1 counts %+v", frac, stats, singleStats)
		}
		// CPU chunks use the same encoder and configuration, so the
		// container must be byte-identical regardless of the split.
		if !bytes.Equal(cont, single) {
			t.Fatalf("frac=%v: container differs from pure GPU", frac)
		}
		got, _, err := Decompress(cont, Options{})
		if err != nil || !bytes.Equal(got, input) {
			t.Fatalf("frac=%v: round trip failed: %v", frac, err)
		}
		if rep.CPUFraction != frac {
			t.Fatalf("frac=%v: report says %v", frac, rep.CPUFraction)
		}
		if frac > 0 && rep.CPUTime <= 0 {
			t.Fatalf("frac=%v: no CPU time recorded", frac)
		}
	}
}

// TestHybridAutoSplitCountsOnlyTheRun: the automatic split's probe
// compresses a sample on both sides, and none of that search reaches
// Options.Stats.
func TestHybridAutoSplitCountsOnlyTheRun(t *testing.T) {
	input := datasets.CFiles(160<<10, 26)
	var want, got lzss.SearchStats
	if _, _, err := CompressV1(input, Options{Stats: &want}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CompressV1Hybrid(input, Options{Stats: &got}, -1); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("auto-split hybrid counts %+v, CompressV1 %+v", got, want)
	}
}

func TestHybridAutoSplit(t *testing.T) {
	input := datasets.CFiles(128<<10, 27)
	cont, rep, err := CompressV1Hybrid(input, Options{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPUFraction < 0 || rep.CPUFraction > 0.95 {
		t.Fatalf("auto split fraction %v out of range", rep.CPUFraction)
	}
	got, _, err := Decompress(cont, Options{})
	if err != nil || !bytes.Equal(got, input) {
		t.Fatalf("auto-split round trip failed: %v", err)
	}
}

func TestHybridRejectsBadFraction(t *testing.T) {
	if _, _, err := CompressV1Hybrid([]byte("x"), Options{}, 1.5); err == nil {
		t.Fatal("accepted fraction > 1")
	}
}

// --- Legacy device preset ------------------------------------------------

func TestTeslaC1060Preset(t *testing.T) {
	d := cudasim.TeslaC1060()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !d.LegacyBankSemantics {
		t.Fatal("C1060 must use legacy bank semantics")
	}
	if d.SMs*d.CoresPerSM != 240 {
		t.Fatalf("C1060 core count = %d, want 240", d.SMs*d.CoresPerSM)
	}
	// The whole pipeline still runs on the legacy part.
	input := datasets.CFiles(32<<10, 28)
	cont, rep, err := CompressV2(input, Options{Device: d})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(cont, Options{Device: d})
	if err != nil || !bytes.Equal(got, input) {
		t.Fatalf("C1060 round trip failed: %v", err)
	}
	if rep.Launch.KernelTime <= 0 {
		t.Fatal("no kernel time")
	}
}

func TestDeviceClone(t *testing.T) {
	a := cudasim.FermiGTX480()
	b := a.Clone()
	b.SMs = 1
	if a.SMs == 1 {
		t.Fatal("Clone aliases the original")
	}
}
