package gpu

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/lzss"
)

func genText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"kernel", "thread", "block", "memory", "window", "match", "buffer", "stream", "launch", "shared"}
	var sb strings.Builder
	for sb.Len() < n {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	return []byte(sb.String()[:n])
}

func genPeriodic(n int) []byte {
	return bytes.Repeat([]byte("abcdefghijklmnopqrst"), (n+19)/20)[:n]
}

func genRandom(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestV1RoundTrip(t *testing.T) {
	for name, input := range map[string][]byte{
		"text":     genText(64<<10, 1),
		"periodic": genPeriodic(32 << 10),
		"random":   genRandom(16<<10, 2),
		"small":    []byte("tiny"),
		"empty":    {},
	} {
		cont, rep, err := CompressV1(input, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Launch.Kernel != "culzss_v1" {
			t.Fatalf("%s: kernel name %q", name, rep.Launch.Kernel)
		}
		got, _, err := Decompress(cont, Options{})
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, input) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestV2RoundTrip(t *testing.T) {
	for name, input := range map[string][]byte{
		"text":     genText(64<<10, 3),
		"periodic": genPeriodic(32 << 10),
		"random":   genRandom(16<<10, 4),
		"small":    []byte("tiny"),
		"empty":    {},
		"odd_tail": genText(DefaultChunkSize+777, 5),
	} {
		cont, rep, err := CompressV2(input, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Launch.Kernel != "culzss_v2" {
			t.Fatalf("%s: kernel name %q", name, rep.Launch.Kernel)
		}
		got, _, err := Decompress(cont, Options{})
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, input) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

// TestV1MatchesCPUReferencePerChunk pins the V1 kernel to the CPU reference
// encoder: same configuration, byte-identical streams.
func TestV1MatchesCPUReferencePerChunk(t *testing.T) {
	input := genText(3*DefaultChunkSize+123, 6)
	cont, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, off, err := format.ParseHeader(cont)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lzss.CULZSSV1()
	chunks := format.SplitChunks(input, DefaultChunkSize)
	payload := cont[off:]
	for i, b := range h.ChunkBounds() {
		want, err := lzss.EncodeByteAligned(chunks[i], cfg, lzss.SearchBrute, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := payload[b.CompOff : b.CompOff+b.CompLen]
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: kernel stream differs from CPU reference", i)
		}
	}
}

// TestV2GreedyEquivalence verifies the redundant-search-plus-post-pass
// pipeline reproduces exactly the greedy serial parse: V2's stream equals
// the CPU byte-aligned encoder at the V2 configuration, chunk by chunk.
func TestV2GreedyEquivalence(t *testing.T) {
	input := genText(2*DefaultChunkSize+517, 7)
	cont, _, err := CompressV2(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, off, err := format.ParseHeader(cont)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lzss.CULZSSV2()
	chunks := format.SplitChunks(input, DefaultChunkSize)
	payload := cont[off:]
	for i, b := range h.ChunkBounds() {
		want, err := lzss.EncodeByteAligned(chunks[i], cfg, lzss.SearchBrute, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := payload[b.CompOff : b.CompOff+b.CompLen]
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: V2 stream differs from greedy CPU reference", i)
		}
	}
}

func TestV2BeatsV1OnHighlyCompressible(t *testing.T) {
	// Table II, last row: V2's 8-bit lengths compress the period-20 data
	// about twice as well as V1's 18-byte lookahead.
	input := genPeriodic(128 << 10)
	v1, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := CompressV2(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(v2)) > float64(len(v1))*0.7 {
		t.Fatalf("V2 (%d) not clearly smaller than V1 (%d) on periodic data", len(v2), len(v1))
	}
}

func TestV2RedundantWorkShows(t *testing.T) {
	// §V: V2 searches every position; V1 skips over matched spans. On
	// compressible data V1 therefore visits far fewer positions.
	input := genPeriodic(64 << 10)
	var st1, st2 lzss.SearchStats
	if _, _, err := CompressV1(input, Options{Stats: &st1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CompressV2(input, Options{Stats: &st2}); err != nil {
		t.Fatal(err)
	}
	if st2.Positions < st1.Positions*3 {
		t.Fatalf("V2 positions (%d) should dwarf V1 positions (%d) on periodic data", st2.Positions, st1.Positions)
	}
}

func TestDecompressRejectsForeignContainers(t *testing.T) {
	h := &format.Header{Codec: format.CodecSerialBitPacked, MinMatch: 3, Window: 4096, Lookahead: 18}
	cont := format.AppendHeader(nil, h)
	if _, _, err := Decompress(cont, Options{}); err == nil {
		t.Fatal("accepted a serial bit-packed container")
	}
	if _, _, err := Decompress([]byte("garbage!"), Options{}); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestDecompressDetectsCorruption(t *testing.T) {
	input := genText(32<<10, 8)
	cont, _, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), cont...)
	corrupt[len(corrupt)-3] ^= 0x55
	if _, _, err := Decompress(corrupt, Options{}); err == nil {
		t.Fatal("accepted corrupted payload")
	}
}

func TestReportsSane(t *testing.T) {
	input := genText(128<<10, 9)
	for _, f := range []func([]byte, Options) ([]byte, *Report, error){CompressV1, CompressV2} {
		cont, rep, err := f(input, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Launch.KernelTime <= 0 || rep.H2D <= 0 || rep.D2H <= 0 {
			t.Fatalf("non-positive model times: %+v", rep)
		}
		if rep.SimulatedTotal() < rep.Launch.KernelTime {
			t.Fatal("total < kernel")
		}
		if rep.InputBytes != len(input) || rep.OutputBytes != len(cont) {
			t.Fatalf("byte counts wrong: %+v", rep)
		}
		if rep.Launch.GlobalBytes == 0 || rep.Launch.GlobalTransactions == 0 {
			t.Fatal("no global traffic recorded")
		}
		if s := rep.String(); !strings.Contains(s, "culzss_") {
			t.Fatalf("String() = %q", s)
		}
	}
}

func TestCompressAllocationBounded(t *testing.T) {
	// The launch workers reuse one block context. V2 takes its match
	// records, token streams, tile indexes and GPU-post's selection
	// scratch from pools, and V1 its chunk streams and window indexes,
	// so a warm launch allocates little beyond its container. V1's host
	// twin shares the chunk-stream pool.
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on its own")
	}
	input := datasets.CFiles(1<<20, 1)
	for _, c := range []struct {
		name  string
		run   func([]byte, Options) ([]byte, *Report, error)
		bound float64 // heap bytes per input byte
	}{
		{"V2", CompressV2, 4},
		{"V2GPUPost", CompressV2GPUPost, 4},
		{"V1", CompressV1, 1},
		{"V1CPU", func(in []byte, o Options) ([]byte, *Report, error) {
			c, err := CompressV1CPU(in, o)
			return c, nil, err
		}, 1},
	} {
		if _, _, err := c.run(input, Options{}); err != nil { // warm-up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := c.run(input, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(input)); perByte > c.bound {
			t.Errorf("%s allocated %.2f B per input byte, bound %v", c.name, perByte, c.bound)
		}
	}
}

// modeledTotal is a report's saturated total without its wall-clock host
// step: saturated kernel time plus the modeled transfers. The kernel
// shape tests compare it, so machine load cannot reorder two runs;
// harness.TestPaperShapeHolds checks the shape with the host step
// included, on its deterministic modeled basis.
func modeledTotal(r *Report) time.Duration {
	return r.Launch.SaturatedKernelTime + r.H2D + r.D2H
}

func TestV2FasterThanV1OnText(t *testing.T) {
	// Table I shape: on ~50%-compressible text V2's uniform kernel beats
	// V1's divergent one in simulated time. The word-soup genText is too
	// repetitive to stand in for source text; use the C-files generator.
	input := datasets.CFiles(256<<10, 10)
	_, r1, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := CompressV2(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if modeledTotal(r2) >= modeledTotal(r1) {
		t.Fatalf("V2 (%v) not faster than V1 (%v) on text", modeledTotal(r2), modeledTotal(r1))
	}
}

func TestV1FasterThanV2OnHighlyCompressible(t *testing.T) {
	// Table I shape, DE-map / highly-compressible rows: V1 skips matched
	// spans, V2 pays the redundant search for every position.
	input := genPeriodic(256 << 10)
	_, r1, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := CompressV2(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if modeledTotal(r1) >= modeledTotal(r2) {
		t.Fatalf("V1 (%v) not faster than V2 (%v) on periodic data", modeledTotal(r1), modeledTotal(r2))
	}
}

func TestSharedMemoryAblation(t *testing.T) {
	// §III.D: moving the search buffers to shared memory bought ~30%.
	// The global-only model must be slower.
	input := genText(128<<10, 11)
	_, withShared, err := CompressV1(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, withoutShared, err := CompressV1(input, Options{DisableSharedMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if withoutShared.Launch.KernelTime <= withShared.Launch.KernelTime {
		t.Fatalf("global-only kernel (%v) not slower than shared (%v)",
			withoutShared.Launch.KernelTime, withShared.Launch.KernelTime)
	}
}

func TestBankSkewAblationOnLegacyDevice(t *testing.T) {
	dev := cudasim.FermiGTX480()
	dev.LegacyBankSemantics = true
	input := genText(64<<10, 12)
	_, skewed, err := CompressV2(input, Options{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	_, unskewed, err := CompressV2(input, Options{Device: dev, DisableBankSkew: true})
	if err != nil {
		t.Fatal(err)
	}
	if unskewed.Launch.SharedReplayCycles <= skewed.Launch.SharedReplayCycles {
		t.Fatalf("bank skew ablation shows no replay difference: %d vs %d",
			unskewed.Launch.SharedReplayCycles, skewed.Launch.SharedReplayCycles)
	}
	if unskewed.Launch.KernelTime <= skewed.Launch.KernelTime {
		t.Fatalf("unskewed kernel (%v) not slower than skewed (%v)",
			unskewed.Launch.KernelTime, skewed.Launch.KernelTime)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := lzss.Config{Window: 4096, MaxMatch: 18, MinMatch: 3} // window too wide for 8-bit offsets
	if _, _, err := CompressV1([]byte("x"), Options{Config: bad}); err == nil {
		t.Fatal("V1 accepted 4096-byte window")
	}
	if _, _, err := CompressV2([]byte("x"), Options{Config: bad}); err == nil {
		t.Fatal("V2 accepted 4096-byte window")
	}
}

func TestThreadsPerBlockVariants(t *testing.T) {
	input := genText(64<<10, 13)
	for _, tpb := range []int{32, 64, 128, 256} {
		opts := Options{ThreadsPerBlock: tpb}
		if tpb > 128 {
			// V1's per-thread shared buffers exceed the SM at 256+
			// threads (paper §V); it must degrade cleanly, not crash:
			// cudasim rejects shapes that cannot be resident.
			_, _, err := CompressV1(input, opts)
			if err == nil {
				// Acceptable when the device still fits it (48 KiB SM).
				continue
			}
			continue
		}
		cont, _, err := CompressV1(input, opts)
		if err != nil {
			t.Fatalf("v1 tpb=%d: %v", tpb, err)
		}
		if got, _, err := Decompress(cont, Options{}); err != nil || !bytes.Equal(got, input) {
			t.Fatalf("v1 tpb=%d round trip failed: %v", tpb, err)
		}
		cont, _, err = CompressV2(input, opts)
		if err != nil {
			t.Fatalf("v2 tpb=%d: %v", tpb, err)
		}
		if got, _, err := Decompress(cont, Options{}); err != nil || !bytes.Equal(got, input) {
			t.Fatalf("v2 tpb=%d round trip failed: %v", tpb, err)
		}
	}
}

func TestOverlapHostShortensTotal(t *testing.T) {
	input := genText(128<<10, 14)
	_, seq, err := CompressV2(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ovl, err := CompressV2(input, Options{OverlapHost: true})
	if err != nil {
		t.Fatal(err)
	}
	// Each report carries its own wall-clock HostTime; compare both
	// totals over the same measured host time, so the test checks the
	// overlap rule rather than two timing samples. Kernel and host time
	// are both positive, so overlapping them is strictly shorter.
	ovl.HostTime = seq.HostTime
	if ovl.SimulatedTotal() >= seq.SimulatedTotal() {
		t.Fatalf("overlapped total %v not shorter than sequential %v", ovl.SimulatedTotal(), seq.SimulatedTotal())
	}
}
