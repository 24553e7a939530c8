package gpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/health"
	"culzss/internal/lzss"
)

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestCompressV2CPUBitIdentical is the twin contract: for every data
// shape the host encoder must reproduce the V2 kernel's container
// byte-for-byte — same tiled match records, same greedy selection, same
// header — because a stream may interleave device and degraded segments
// and parity covers exact frame bytes.
func TestCompressV2CPUBitIdentical(t *testing.T) {
	inputs := map[string][]byte{
		"empty":       {},
		"one-byte":    {0x7},
		"zeros":       make([]byte, 12<<10),
		"cfiles":      datasets.CFiles(64<<10, 9),
		"random":      randomBytes(16<<10, 10),
		"demap":       datasets.DEMap(20<<10+7, 11),
		"chunk-edge":  datasets.KernelTarball(4097, 12),
		"sub-chunk":   datasets.KernelTarball(777, 13),
		"repetitive":  bytes.Repeat([]byte("xyzzy"), 3000),
		"small-prime": datasets.Dictionary(8191, 14),
	}
	optVariants := map[string]Options{
		"defaults":  {},
		"tpb-64":    {ThreadsPerBlock: 64},
		"chunk-1k":  {ChunkSize: 1 << 10},
		"window-64": {Config: lzss.Config{Window: 64, MaxMatch: 130, MinMatch: 3}},
	}
	for dn, data := range inputs {
		for on, opts := range optVariants {
			t.Run(fmt.Sprintf("%s/%s", dn, on), func(t *testing.T) {
				want, _, err := CompressV2(data, opts)
				if err != nil {
					t.Fatalf("CompressV2: %v", err)
				}
				got, err := CompressV2CPU(data, opts)
				if err != nil {
					t.Fatalf("CompressV2CPU: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("CPU twin differs from kernel output: %d vs %d bytes", len(got), len(want))
				}
				out, _, err := Decompress(got, Options{})
				if err != nil || !bytes.Equal(out, data) {
					t.Fatalf("round trip: %v", err)
				}
				h, _, err := format.ParseHeader(got)
				if err != nil || h.Codec != format.CodecCULZSSV2 {
					t.Fatalf("twin container codec %v, err %v", h.Codec, err)
				}
			})
		}
	}
}

// testEngineV2 puts the V2 entry points behind the Engine shape; the
// registered V2 engine lives in internal/codec, which imports this
// package.
type testEngineV2 struct{}

func (testEngineV2) Compress(data []byte, opts Options) ([]byte, *Report, error) {
	return CompressV2(data, opts)
}

func (testEngineV2) CompressCPU(data []byte, opts Options) ([]byte, error) {
	return CompressV2CPU(data, opts)
}

// TestCompressSupervisedV2RedispatchesAndDegrades exercises the generic
// dispatch ladder under the V2 engine: a dead home device redispatches
// to the healthy sibling (byte-identical output, no degrade); an
// all-dead pool degrades to CompressV2CPU, still byte-identical.
func TestCompressSupervisedV2RedispatchesAndDegrades(t *testing.T) {
	input := datasets.CFiles(48<<10, 21)
	want, _, err := CompressV2(input, Options{})
	if err != nil {
		t.Fatal(err)
	}

	sup := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: cudasim.FermiGTX480()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour})
	o, err := CompressSupervised(testEngineV2{}, input, Options{Health: sup}, RetryPolicy{}, 0, "v2 work")
	got, rep, degraded := o.Container, o.Report, o.Degraded
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Fatal("healthy sibling available, yet the work degraded")
	}
	if rep == nil {
		t.Fatal("device-path success returned a nil report")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("redispatched container differs from healthy single-device output")
	}
	if snap := sup.Snapshot(); snap.Redispatched == 0 {
		t.Fatalf("no redispatch recorded: %+v", snap)
	}

	allDead := health.NewSupervisor([]health.DeviceSlot{
		{Device: deadDevice()},
		{Device: deadDevice()},
	}, health.Policy{Threshold: 1, OpenFor: time.Hour})
	o, err = CompressSupervised(testEngineV2{}, input, Options{Health: allDead}, RetryPolicy{}, -1, "v2 work")
	got, rep, degraded = o.Container, o.Report, o.Degraded
	if err != nil {
		t.Fatal(err)
	}
	if !degraded || rep != nil {
		t.Fatalf("all-dead pool: degraded=%v rep=%v, want CPU degrade", degraded, rep)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded container differs from device output — the twin is not bit-identical")
	}
}
