package core

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"culzss/internal/format"
	"culzss/internal/lzss"
)

// hostileContainers are bare V1 containers whose headers lie about the
// output they decode to.
func hostileContainers() map[string][]byte {
	cfg := lzss.CULZSSV1()
	v1 := func(originalLen int, crc uint32, chunks []int) []byte {
		c := format.AppendHeader(nil, &format.Header{
			Codec: format.CodecCULZSSV1, MinMatch: uint8(cfg.MinMatch),
			Window: cfg.Window, Lookahead: cfg.MaxMatch,
			OriginalLen: originalLen, Checksum: crc, ChunkSizes: chunks,
		})
		for _, n := range chunks {
			c = append(c, make([]byte, n)...)
		}
		return c
	}
	overlapping := make([]int, 400)
	for i := range overlapping {
		overlapping[i] = 2 // a flag byte and one literal zero
	}
	return map[string][]byte{
		// Two payload bytes claiming 1 GiB of output.
		"1GiB-claim": v1(1<<30, 0, []int{2}),
		// 400 chunks without a chunk size, all decoding into out[0:1].
		"overlapping-chunks": v1(1, format.Checksum32([]byte{0}), overlapping),
		// No chunks at all claiming 1 GiB of output.
		"chunkless-claim": v1(1<<30, 0, nil),
	}
}

// TestDecompressRejectsHostileContainers: a header that lies about its
// output fails as corrupt before the decoder allocates for the lie.
func TestDecompressRejectsHostileContainers(t *testing.T) {
	for name, c := range hostileContainers() {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decompress(c, Params{})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, format.ErrCorrupt) {
				t.Fatalf("Decompress of a %d-byte container: %v, want an error wrapping format.ErrCorrupt", len(c), err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
				t.Fatalf("allocated %d MiB before rejecting a %d-byte container", alloc>>20, len(c))
			}
		})
	}
}

// TestDecompressNeverPanicsOnRandomContainers drives the public entry
// point with random and half-valid containers: any outcome but a panic.
func TestDecompressNeverPanicsOnRandomContainers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))

	// Pure garbage.
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(256)
		garbage := make([]byte, n)
		rng.Read(garbage)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on garbage: %v", trial, r)
				}
			}()
			_, _ = Decompress(garbage, Params{})
		}()
	}

	// Valid magic + garbage body.
	for trial := 0; trial < 1000; trial++ {
		n := 5 + rng.Intn(256)
		buf := make([]byte, n)
		rng.Read(buf)
		copy(buf, format.Magic)
		buf[4] = format.Version
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on magic+garbage: %v", trial, r)
				}
			}()
			_, _ = Decompress(buf, Params{})
		}()
	}

	// Valid container with mutations.
	base, _, err := Compress([]byte("fuzz seed content fuzz seed content fuzz"), "v1", Params{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2000; trial++ {
		corrupt := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(6); k++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on mutated container: %v", trial, r)
				}
			}()
			_, _ = Decompress(corrupt, Params{})
		}()
	}
}

// FuzzDecompress is a native fuzz target over the container parser and
// all decoders (run with `go test -fuzz=FuzzDecompress ./internal/core`).
func FuzzDecompress(f *testing.F) {
	seedA, _, _ := Compress([]byte("seed one: some compressible compressible data"), "v1", Params{})
	seedB, _, _ := Compress([]byte("seed two"), "cpu", Params{})
	f.Add(seedA)
	f.Add(seedB)
	f.Add([]byte(format.Magic))
	for _, c := range hostileContainers() {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decompress(data, Params{})
	})
}
