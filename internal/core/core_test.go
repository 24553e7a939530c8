package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"culzss/internal/codec"
	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/gpu"
)

func genText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"gateway", "compress", "network", "bandwidth", "storage", "payload"}
	var sb strings.Builder
	for sb.Len() < n {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	return []byte(sb.String()[:n])
}

func TestInitDetectsDevice(t *testing.T) {
	info := Init()
	if info.Device == nil || info.CUDACores != 480 {
		t.Fatalf("Init() = %+v", info)
	}
}

func TestCompressDecompressAllVersions(t *testing.T) {
	input := genText(96<<10, 1)
	for _, name := range []string{"v1", "v2", "cpu", "pthread", "bzip2", codec.Auto} {
		comp, _, err := Compress(input, name, Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(comp) >= len(input) {
			t.Fatalf("%s: no compression (%d -> %d)", name, len(input), len(comp))
		}
		got, err := Decompress(comp, Params{})
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, input) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestCompressedContainersCarryRightCodec(t *testing.T) {
	input := genText(16<<10, 2)
	cases := map[string]format.Codec{
		"v1":      format.CodecCULZSSV1,
		"v2":      format.CodecCULZSSV2,
		"cpu":     format.CodecSerialBitPacked,
		"pthread": format.CodecChunkedBitPacked,
		"bzip2":   format.CodecBZip2,
		"raw":     format.CodecStoreRaw,
	}
	for name, want := range cases {
		comp, _, err := Compress(input, name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := format.ParseHeader(comp)
		if err != nil {
			t.Fatal(err)
		}
		if h.Codec != want {
			t.Errorf("%s produced %v, want %v", name, h.Codec, want)
		}
	}
}

// TestSelectVersionFollowsPaperGuidance checks the codec the default
// route (an empty name, i.e. codec.Auto) stamps on each Table II dataset.
func TestSelectVersionFollowsPaperGuidance(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want format.Codec
	}{
		// Highly compressible (Table II: 13.5%) -> V1.
		{"highly-compressible", datasets.HighlyCompressible(128<<10, 3), format.CodecCULZSSV1},
		// DE-map-like data (34%) -> V1.
		{"de-map", datasets.DEMap(128<<10, 4), format.CodecCULZSSV1},
		// ~50%+ text -> V2.
		{"c-files", datasets.CFiles(128<<10, 5), format.CodecCULZSSV2},
		{"dictionary", datasets.Dictionary(128<<10, 6), format.CodecCULZSSV2},
		// Empty input is stored raw.
		{"empty", nil, format.CodecStoreRaw},
	}
	for _, tc := range cases {
		comp, _, err := Compress(tc.data, "", Params{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h, _, err := format.ParseHeader(comp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h.Codec != tc.want {
			t.Errorf("default codec for %s = %v, want %v", tc.name, h.Codec, tc.want)
		}
		got, err := Decompress(comp, Params{})
		if err != nil || !bytes.Equal(got, tc.data) {
			t.Errorf("%s: round trip failed: %v", tc.name, err)
		}
	}
}

func TestTuningOverrides(t *testing.T) {
	input := genText(32<<10, 7)
	// Window override for GPU versions (§VII tuning API).
	comp, _, err := Compress(input, "v1", Params{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := format.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if h.Window != 64 {
		t.Fatalf("window = %d, want 64", h.Window)
	}
	// Oversized GPU window must be rejected.
	if _, _, err := Compress(input, "v2", Params{Window: 1024}); err == nil {
		t.Fatal("accepted window 1024 on GPU version")
	}
	// CPU serial accepts large windows.
	comp, _, err = Compress(input, "cpu", Params{Window: 8192})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp, Params{})
	if err != nil || !bytes.Equal(got, input) {
		t.Fatalf("serial 8 KiB window round trip failed: %v", err)
	}
}

func TestDecompressDispatchesBZip2(t *testing.T) {
	// A bzip2 container from the baseline package must open through the
	// same Decompress call.
	input := genText(64<<10, 8)
	comp := mustBZip2(t, input)
	got, err := Decompress(comp, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, input) {
		t.Fatal("bzip2 dispatch round trip mismatch")
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := Decompress([]byte("not a container"), Params{}); err == nil {
		t.Fatal("accepted garbage")
	}
}

// TestCompressOneShotDegradesWithoutHealth: with no supervisor, a one-shot
// call on an accelerated codec rides the default retry ladder — three
// device attempts, then the byte-identical host twin — instead of failing
// on the first device error.
func TestCompressOneShotDegradesWithoutHealth(t *testing.T) {
	input := datasets.CFiles(64<<10, 59)
	want, err := gpu.CompressV1CPU(input, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var launches atomic.Int32
	dev := cudasim.FermiGTX480()
	dev.LaunchHook = func(ctx context.Context, kernel string) error {
		launches.Add(1)
		return errors.New("injected: device fell off the bus")
	}
	got, rep, err := Compress(input, "v1", Params{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatal("degraded one-shot call returned a device report")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("one-shot container differs from the host twin's")
	}
	if n := launches.Load(); n != 3 {
		t.Fatalf("%d device launches, want the default ladder's 3", n)
	}
}

func TestCompressRejectsUnknownVersion(t *testing.T) {
	if _, _, err := Compress([]byte("x"), "v42", Params{}); err == nil {
		t.Fatal("accepted unknown codec name")
	}
}

func TestStreamingAdapters(t *testing.T) {
	input := genText(64<<10, 10)
	var netBuf bytes.Buffer
	w := NewWriterOptions(&netBuf, Params{}, StreamOptions{Codec: "v1"})
	half := len(input) / 2
	if _, err := w.Write(input[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(input[half:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("more")); err != ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close must be a no-op returning nil, got %v", err)
	}
	if netBuf.Len() >= len(input) {
		t.Fatal("stream not compressed")
	}

	r, err := NewReader(&netBuf, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), input) {
		t.Fatal("stream round trip mismatch")
	}
}

func TestQuickRoundTripAllVersions(t *testing.T) {
	for _, name := range []string{"v1", "v2", "cpu", "pthread"} {
		f := func(data []byte) bool {
			comp, _, err := Compress(data, name, Params{})
			if err != nil {
				return false
			}
			got, err := Decompress(comp, Params{})
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
