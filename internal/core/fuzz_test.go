package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"culzss/internal/bitio"
	"culzss/internal/format"
	"culzss/internal/lzss"
)

// hostileContainers are bare V1, bit-packed and bzip2 containers whose
// headers lie about the output they decode to.
func hostileContainers() map[string][]byte {
	bare := func(codec format.Codec, cfg lzss.Config, chunkSize, originalLen int, crc uint32, chunks []int) []byte {
		c := format.AppendHeader(nil, &format.Header{
			Codec: codec, MinMatch: uint8(cfg.MinMatch),
			Window: cfg.Window, Lookahead: cfg.MaxMatch, ChunkSize: chunkSize,
			OriginalLen: originalLen, Checksum: crc, ChunkSizes: chunks,
		})
		for _, n := range chunks {
			c = append(c, make([]byte, n)...)
		}
		return c
	}
	v1 := func(originalLen int, crc uint32, chunks []int) []byte {
		return bare(format.CodecCULZSSV1, lzss.CULZSSV1(), 0, originalLen, crc, chunks)
	}
	wide := lzss.Config{Window: 1, MaxMatch: 1 << 24, MinMatch: 3}
	overlapping := make([]int, 400)
	for i := range overlapping {
		overlapping[i] = 2 // a flag byte and one literal zero
	}
	// The 198-byte bzip2 container of one byte, re-headed to claim a
	// single 64 MiB block: 202 bytes.
	bz, _, err := Compress([]byte("x"), "bzip2", Params{})
	if err != nil {
		panic(err)
	}
	h, off, err := format.ParseHeader(bz)
	if err != nil {
		panic(err)
	}
	// A 199-byte container with the same header, whose one block claims
	// one byte but codes 24 RUNB symbols then EOB: a zero run of 2^25-2
	// bytes. Its one table codes RUNB as 0 and EOB as 1.
	block := bitio.NewWriter(0)
	block.WriteBits(1, 32) // stage-1 length
	block.WriteBits(0, 32) // primary index
	block.WriteBits(1, 8)  // tables
	block.WriteBits(1, 32) // groups
	block.WriteBits(0, 3)  // the group's table
	for sym := 0; sym < 258; sym++ {
		if sym == 1 || sym == 257 {
			block.WriteBits(1, 5)
		} else {
			block.WriteBits(0, 5)
		}
	}
	block.WriteBits(0, 24)
	block.WriteBit(1)
	h.ChunkSizes = []int{len(block.Bytes())}
	zeroRun := append(format.AppendHeader(nil, h), block.Bytes()...)
	h.ChunkSize, h.OriginalLen, h.ChunkSizes = 64<<20, 64<<20, nil
	bz = append(format.AppendHeader(nil, h), bz[off:]...)
	return map[string][]byte{
		// Two payload bytes claiming 1 GiB of output.
		"1GiB-claim": v1(1<<30, 0, []int{2}),
		// 400 chunks without a chunk size, all decoding into out[0:1].
		"overlapping-chunks": v1(1, format.Checksum32([]byte{0}), overlapping),
		// No chunks at all claiming 1 GiB of output.
		"chunkless-claim": v1(1<<30, 0, nil),
		// One payload byte claiming a 64 MiB chunk, for the serial and
		// the pthread codec.
		"serial-64MiB-claim":  bare(format.CodecSerialBitPacked, lzss.Dipperstein(), 64<<20, 64<<20, 0, []int{1}),
		"pthread-64MiB-claim": bare(format.CodecChunkedBitPacked, lzss.Dipperstein(), 64<<20, 64<<20, 0, []int{1}),
		// 64 payload bytes claiming 64 MiB under a 24-bit length field:
		// twenty 25-bit coded tokens of 16 MiB each would decode to more,
		// so only the cap on field widths refuses the claim.
		"serial-wide-length":  bare(format.CodecSerialBitPacked, wide, 0, 64<<20, 0, []int{64}),
		"pthread-wide-length": bare(format.CodecChunkedBitPacked, wide, 64<<20, 64<<20, 0, []int{64}),
		"bzip2-64MiB-claim":   bz,
		"bzip2-zero-run":      zeroRun,
	}
}

// TestDecompressRejectsHostileContainers: a header that lies about its
// output fails as corrupt before the decoder allocates for the lie: bare,
// inside an honest one-byte frame of a stream, and inside a frame whose
// rawLen repeats the lie (capped at 256 MiB) under a header declaring
// 1 GiB segments, which the frame bound lets through. A 40-byte stream
// whose frame claims 256 MiB around the raw container of an empty input
// fails the same way.
func TestDecompressRejectsHostileContainers(t *testing.T) {
	check := func(t *testing.T, what string, input []byte, decode func([]byte, Params) ([]byte, error)) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode(input, Params{})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, format.ErrCorrupt) {
			t.Fatalf("%s (%d bytes): %v, want an error wrapping format.ErrCorrupt", what, len(input), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
			t.Fatalf("%s (%d bytes) allocated %d MiB before failing", what, len(input), alloc>>20)
		}
	}
	read := func(stream []byte, p Params) ([]byte, error) {
		r, err := NewReaderOptions(bytes.NewReader(stream), p, ReaderOptions{})
		if err != nil {
			return nil, err
		}
		return io.ReadAll(r)
	}
	frame := func(segmentSize, rawLen int, c []byte) []byte {
		return format.AppendSegmentFrame(format.AppendStreamHeader(nil, segmentSize), 0, rawLen, c)
	}
	for name, c := range hostileContainers() {
		t.Run(name, func(t *testing.T) {
			check(t, "bare container", c, Decompress)
			check(t, "container in a one-byte frame", frame(1<<20, 1, c), read)
			// overlapping-chunks fails ParseHeader; its claim of one byte
			// is the one-byte frame's.
			if h, _, err := format.ParseHeader(c); err == nil {
				check(t, "container in a frame repeating its claim", frame(1<<30, min(h.OriginalLen, 256<<20), c), read)
			}
		})
	}
	empty, _, err := Compress(nil, "raw", Params{})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "empty raw container in a 256 MiB frame", frame(1<<30, 256<<20, empty), read)
}

// TestReaderBoundsFrameClaimByInput: a 31-byte stream whose header
// declares 1 GiB segments, and whose one frame claims a 1 GiB container,
// passes the frame bound. The default Reader must still fail it as
// truncated without allocating what the frame claims.
func TestReaderBoundsFrameClaimByInput(t *testing.T) {
	stream := format.AppendStreamHeader(nil, 1<<30)
	stream = append(stream, 0x01, 0)             // segment marker, index
	stream = binary.AppendUvarint(stream, 1<<30) // rawLen
	stream = binary.AppendUvarint(stream, 1<<30) // compLen
	stream = append(stream, 0xde, 0xad, 0xbe, 0xef, 0xaa, 0xaa, 0xaa, 0xaa)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewReader(bytes.NewReader(stream), Params{})
	if err == nil {
		_, err = io.ReadAll(r)
	}
	runtime.ReadMemStats(&after)
	if !errors.Is(err, format.ErrTruncated) {
		t.Fatalf("%d-byte stream claiming a 1 GiB container: %v, want ErrTruncated", len(stream), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("%d-byte stream claiming a 1 GiB container allocated %d bytes", len(stream), alloc)
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
