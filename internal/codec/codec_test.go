package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/gpu"
)

// The accelerated engines must satisfy the gpu dispatch ladder's minimal
// shape structurally — that is what lets any registered codec ride the
// supervised acquire/watchdog/redispatch/degrade path.
var (
	_ gpu.Engine = engineV1{}
	_ gpu.Engine = engineV2{}
	_ gpu.Engine = engineRaw{}
)

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func corpus() map[string][]byte {
	return map[string][]byte{
		"empty":      {},
		"one-byte":   {0x42},
		"zeros":      make([]byte, 8<<10),
		"text":       datasets.CFiles(24<<10, 3),
		"random":     randomBytes(12<<10, 4),
		"chunk-edge": datasets.KernelTarball(4097, 5),
	}
}

// TestRegistryCoversAssignedCodecs pins the registry wiring: every codec
// value the format assigns resolves to an engine that claims exactly
// that identity and name.
func TestRegistryCoversAssignedCodecs(t *testing.T) {
	wantNames := map[format.Codec]string{
		format.CodecSerialBitPacked:  "cpu",
		format.CodecChunkedBitPacked: "pthread",
		format.CodecCULZSSV1:         "v1",
		format.CodecCULZSSV2:         "v2",
		format.CodecBZip2:            "bzip2",
		format.CodecStoreRaw:         "raw",
	}
	for c, name := range wantNames {
		e, ok := Lookup(c)
		if !ok {
			t.Fatalf("codec %v has no registered engine", c)
		}
		if e.Codec() != c || e.Name() != name {
			t.Fatalf("codec %v resolved to engine (%v, %q), want (%v, %q)", c, e.Codec(), e.Name(), c, name)
		}
		byN, ok := ByName(name)
		if !ok || byN.Codec() != c {
			t.Fatalf("ByName(%q) did not round-trip to codec %v", name, c)
		}
	}
	if got := len(Engines()); got != len(wantNames) {
		t.Fatalf("%d engines registered, want %d", got, len(wantNames))
	}
	// Headroom values parse as structurally valid but stay unregistered —
	// the satellite seam for typed unknown-codec decode failures.
	for c := format.CodecStoreRaw + 1; c <= format.CodecMax; c++ {
		if !c.Valid() {
			t.Fatalf("headroom codec %d should be structurally valid", uint8(c))
		}
		if _, ok := Lookup(c); ok {
			t.Fatalf("headroom codec %d unexpectedly registered", uint8(c))
		}
	}
}

// TestEnginesRoundTripAndTwinIdentity runs every registered engine over
// the corpus: Compress must round-trip through the engine's own
// DecompressInto, the container must carry the engine's codec byte, and
// CompressCPU — the degrade twin — must be byte-identical to Compress.
func TestEnginesRoundTripAndTwinIdentity(t *testing.T) {
	for _, e := range Engines() {
		for name, data := range corpus() {
			t.Run(fmt.Sprintf("%s/%s", e.Name(), name), func(t *testing.T) {
				cont, _, err := e.Compress(data, gpu.Options{HostWorkers: 1})
				if err != nil {
					t.Fatalf("compress: %v", err)
				}
				h, _, err := format.ParseHeader(cont)
				if err != nil {
					t.Fatalf("container header: %v", err)
				}
				if h.Codec != e.Codec() {
					t.Fatalf("container codec %v, engine claims %v", h.Codec, e.Codec())
				}
				twin, err := e.CompressCPU(data, gpu.Options{HostWorkers: 1})
				if err != nil {
					t.Fatalf("cpu twin: %v", err)
				}
				if !bytes.Equal(twin, cont) {
					t.Fatalf("CompressCPU differs from Compress: %d vs %d bytes", len(twin), len(cont))
				}
				out, _, err := e.DecompressInto(nil, cont, gpu.Options{HostWorkers: 1})
				if err != nil {
					t.Fatalf("decompress: %v", err)
				}
				if !bytes.Equal(out, data) {
					t.Fatalf("round trip mismatch: %d in, %d out", len(data), len(out))
				}
			})
		}
	}
}

// TestRawStoreOverheadBound pins the selector's never-expand guarantee
// at the engine level: a raw container costs at most RawOverhead beyond
// the plaintext, for every size.
func TestRawStoreOverheadBound(t *testing.T) {
	e, _ := Lookup(format.CodecStoreRaw)
	for _, n := range []int{0, 1, 100, 4096, 1 << 20} {
		data := randomBytes(n, int64(n)+1)
		cont, _, err := e.Compress(data, gpu.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cont) > n+RawOverhead {
			t.Fatalf("raw container for %d bytes is %d bytes, exceeds bound %d", n, len(cont), n+RawOverhead)
		}
		out, _, err := e.DecompressInto(make([]byte, 0, n), cont, gpu.Options{})
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("raw round trip (%d bytes): %v", n, err)
		}
	}
}

// TestRawStoreRejectsDamage: flipping a payload byte must fail the
// checksum, and a foreign codec byte must be refused.
// TestContainersFitFrameBound checks every registered engine against the
// frame layer's container bound: a segment of n bytes compresses to at
// most 2·n + 4 KiB (format's frameBound), so a reader may reject any
// frame claiming more. Inputs are random and all-zero, of every length
// from 0 to 16 bytes and of sizes up to 1 MiB.
func TestContainersFitFrameBound(t *testing.T) {
	sizes := []int{}
	for n := 0; n <= 16; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 100, 1000, 4<<10, 4<<10+1, 64<<10, 1<<20)
	for _, e := range Engines() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel() // the serial engines spend seconds on a random MiB
			worst := 0.0
			for _, n := range sizes {
				for kind, data := range map[string][]byte{"random": randomBytes(n, int64(n)), "zeros": make([]byte, n)} {
					cont, _, err := e.Compress(data, gpu.Options{})
					if err != nil {
						t.Fatalf("compress %d %s bytes: %v", n, kind, err)
					}
					if bound := 2*n + 4<<10; len(cont) > bound {
						t.Errorf("%d %s bytes compress to %d, beyond the frame bound %d", n, kind, len(cont), bound)
					}
					if n >= 1<<10 {
						worst = max(worst, float64(len(cont))/float64(n))
					}
				}
			}
			t.Logf("worst container %.3f·n for inputs of 1 KiB and more", worst)
		})
	}
}

func TestRawStoreRejectsDamage(t *testing.T) {
	e, _ := Lookup(format.CodecStoreRaw)
	cont, _, err := e.Compress(randomBytes(1024, 9), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), cont...)
	bad[len(bad)-1] ^= 0x40
	if _, _, err := e.DecompressInto(nil, bad, gpu.Options{}); !errors.Is(err, format.ErrChecksum) {
		t.Fatalf("damaged payload: %v, want checksum failure", err)
	}
	v1cont, _, err := Engines()[2].Compress([]byte("hello hello hello"), gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.DecompressInto(nil, v1cont, gpu.Options{}); err == nil {
		t.Fatal("raw engine decoded a non-raw container")
	}
}

// TestSelectCodec pins the decision rule on the three data shapes it
// distinguishes.
func TestSelectCodec(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want format.Codec
	}{
		{"incompressible", randomBytes(64<<10, 11), format.CodecStoreRaw},
		{"highly-compressible", datasets.HighlyCompressible(64<<10, 12), format.CodecCULZSSV1},
		{"mid-compressible", datasets.CFiles(64<<10, 13), format.CodecCULZSSV2},
		{"empty", nil, format.CodecStoreRaw},
	}
	for _, tc := range cases {
		if got := SelectCodec(tc.data); got != tc.want {
			t.Errorf("SelectCodec(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestUnknownCodecError pins the typed error's shape: errors.Is matches
// the sentinel, errors.As recovers the codec value.
func TestUnknownCodecError(t *testing.T) {
	err := error(&UnknownCodecError{Codec: format.Codec(9)})
	if !errors.Is(err, ErrUnknownCodec) {
		t.Fatal("UnknownCodecError does not unwrap to ErrUnknownCodec")
	}
	var uce *UnknownCodecError
	if !errors.As(err, &uce) || uce.Codec != format.Codec(9) {
		t.Fatalf("errors.As lost the codec value: %+v", uce)
	}
	wrapped := fmt.Errorf("core: segment 3: %w", err)
	if !errors.Is(wrapped, ErrUnknownCodec) || !errors.As(wrapped, &uce) {
		t.Fatal("wrapping broke the typed chain")
	}
}
