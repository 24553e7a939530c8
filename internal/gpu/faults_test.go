package gpu

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/faults"
	"culzss/internal/lzss"
)

// --- CPU fallback bit-compatibility ------------------------------------

func TestCompressV1CPUBitIdentical(t *testing.T) {
	for _, name := range []string{"cfiles", "demap"} {
		var input []byte
		if name == "cfiles" {
			input = datasets.CFiles(64<<10, 3)
		} else {
			input = datasets.DEMap(64<<10, 3)
		}
		gpuCont, _, err := CompressV1(input, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cpuCont, err := CompressV1CPU(input, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gpuCont, cpuCont) {
			t.Fatalf("%s: CPU fallback container differs from the GPU container", name)
		}
		got, _, err := Decompress(cpuCont, Options{})
		if err != nil || !bytes.Equal(got, input) {
			t.Fatalf("%s: CPU fallback round trip failed: %v", name, err)
		}
	}
}

func TestCompressV1CPURejectsOversizedConfig(t *testing.T) {
	cfg := lzss.CULZSSV1()
	cfg.Window = 512 // valid LZSS config, but does not fit the 16-bit token
	if _, err := CompressV1CPU([]byte("data"), Options{Config: cfg}); err == nil {
		t.Fatal("oversized config accepted")
	}
}

func TestCompressV1RefusesMinMatchBeyondHeader(t *testing.T) {
	// Fits the 16-bit token, but the header records MinMatch in 8 bits.
	cfg := lzss.Config{Window: 128, MaxMatch: 400, MinMatch: 300}
	input := make([]byte, 800)
	if cont, _, err := CompressV1(input, Options{Config: cfg}); err == nil {
		t.Errorf("V1 returned a %d-byte container", len(cont))
	}
	if cont, err := CompressV1CPU(input, Options{Config: cfg}); err == nil {
		t.Errorf("the V1 CPU fallback returned a %d-byte container", len(cont))
	}
}

// --- launch / transfer / chunk fault sites -----------------------------

func TestLaunchFaultInjected(t *testing.T) {
	inj := faults.New(faults.PinnedSeed(7)).FailFirst(faults.SiteLaunch, 1)
	input := datasets.CFiles(16<<10, 5)
	_, _, err := CompressV1(input, Options{Injector: inj})
	if err == nil {
		t.Fatal("expected injected launch fault")
	}
	if !faults.IsInjected(err) || !faults.IsTransient(err) {
		t.Fatalf("fault not classified as injected+transient: %v", err)
	}
	// The site recovers: the same injector now lets the launch through.
	cont, _, err := CompressV1(input, Options{Injector: inj})
	if err != nil {
		t.Fatalf("second attempt after transient fault: %v", err)
	}
	got, _, err := Decompress(cont, Options{})
	if err != nil || !bytes.Equal(got, input) {
		t.Fatalf("round trip after recovery failed: %v", err)
	}
}

// compressKernels are the device compression entry points that probe the
// launch and transfer fault sites.
var compressKernels = []struct {
	name string
	run  func([]byte, Options) ([]byte, *Report, error)
}{
	{"V1", CompressV1},
	{"V2", CompressV2},
	{"V2GPUPost", CompressV2GPUPost},
}

func TestTransferFaultInjected(t *testing.T) {
	// The first transfer probe is the input copy, the second the copy back.
	dirs := []struct {
		name string
		arm  func(*faults.Injector) *faults.Injector
	}{
		{"h2d", func(in *faults.Injector) *faults.Injector { return in.FailFirst(faults.SiteTransfer, 1) }},
		{"d2h", func(in *faults.Injector) *faults.Injector { return in.FailEvery(faults.SiteTransfer, 2) }},
	}
	for _, k := range compressKernels {
		for _, d := range dirs {
			t.Run(k.name+"/"+d.name, func(t *testing.T) {
				inj := d.arm(faults.New(faults.PinnedSeed(7)))
				_, _, err := k.run(datasets.CFiles(8<<10, 5), Options{Injector: inj})
				if err == nil {
					t.Fatal("expected injected transfer fault")
				}
				if !faults.IsInjected(err) {
					t.Fatalf("not an injected fault: %v", err)
				}
				if !strings.Contains(err.Error(), d.name+" transfer") {
					t.Fatalf("transfer fault not labelled with its site and direction: %v", err)
				}
			})
		}
	}
}

// TestDecompressChunkFaultDeterministic locks in the satellite fix: with
// a persistent chunk-site fault and many concurrent workers, the reported
// chunk index must always be the lowest one, not whichever goroutine
// won the race.
func TestDecompressChunkFaultDeterministic(t *testing.T) {
	input := datasets.CFiles(64<<10, 5)
	cont, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		inj := faults.New(faults.PinnedSeed(7)).Always(faults.SiteChunk)
		_, _, derr := Decompress(cont, Options{Injector: inj, HostWorkers: 8})
		if derr == nil {
			t.Fatal("expected injected chunk fault")
		}
		if !strings.Contains(derr.Error(), "chunk 0") {
			t.Fatalf("run %d: fault error is not deterministic (want chunk 0): %v", run, derr)
		}
	}
}

func TestContextCancelStopsCompression(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, k := range compressKernels {
		_, _, err := k.run(datasets.CFiles(8<<10, 5), Options{Context: ctx})
		if err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("%s: cancelled context not honoured: %v", k.name, err)
		}
	}
	_, _, err := CompressV1Streamed(datasets.CFiles(8<<10, 5), Options{Context: ctx}, 2)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("streamed: cancelled context not honoured: %v", err)
	}
}

// --- multi-GPU error paths ---------------------------------------------

func TestMultiGPUShardFaultNamesDevice(t *testing.T) {
	// Two shards, launch fails only on the second launch attempt: the
	// error must be attributed to device 1.
	inj := faults.New(faults.PinnedSeed(7)).FailEvery(faults.SiteLaunch, 2)
	input := datasets.CFiles(32<<10, 5)
	_, _, err := CompressV1MultiGPU(input, Options{ChunkSize: 4096, Injector: inj}, 2)
	if err == nil {
		t.Fatal("expected injected shard fault")
	}
	if !strings.Contains(err.Error(), "device 1") {
		t.Fatalf("shard fault not attributed to its device: %v", err)
	}
	if !faults.IsInjected(err) {
		t.Fatalf("not an injected fault: %v", err)
	}
}

func TestMultiGPURejectsOversizedConfig(t *testing.T) {
	cfg := lzss.CULZSSV1()
	cfg.Window = 512
	_, _, err := CompressV1MultiGPU(datasets.CFiles(16<<10, 5), Options{Config: cfg}, 2)
	if err == nil {
		t.Fatal("oversized config accepted")
	}
	if !strings.Contains(err.Error(), "device 0") {
		t.Fatalf("config error not wrapped with its device: %v", err)
	}
}

func TestMultiGPUBadCounts(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, _, err := CompressV1MultiGPU([]byte("x"), Options{}, n); err == nil {
			t.Fatalf("nGPUs=%d accepted", n)
		}
	}
}

// --- hybrid error paths -------------------------------------------------

func TestHybridGPUShardFault(t *testing.T) {
	inj := faults.New(faults.PinnedSeed(7)).Always(faults.SiteLaunch)
	_, _, err := CompressV1Hybrid(datasets.CFiles(32<<10, 5), Options{Injector: inj}, 0.25)
	if err == nil {
		t.Fatal("expected injected fault from the hybrid GPU shard")
	}
	if !faults.IsInjected(err) {
		t.Fatalf("not an injected fault: %v", err)
	}
}

func TestHybridBadFractions(t *testing.T) {
	for _, f := range []float64{1.01, 2} {
		if _, _, err := CompressV1Hybrid([]byte("x"), Options{}, f); err == nil {
			t.Fatalf("cpuFraction=%v accepted", f)
		}
	}
}

func TestHybridOversizedConfig(t *testing.T) {
	cfg := lzss.CULZSSV1()
	cfg.Window = 512
	// cpuFraction 0: everything goes to the GPU shard, which must reject
	// the configuration rather than emit a malformed container.
	_, _, err := CompressV1Hybrid(datasets.CFiles(16<<10, 5), Options{Config: cfg}, 0)
	if err == nil {
		t.Fatal("oversized config accepted")
	}
}
