package bzip2

import (
	"math/rand"
	"testing"

	"culzss/internal/bitio"
	"culzss/internal/bzip2/huffman"
	"culzss/internal/format"
)

// TestDecompressBlockNeverPanics feeds random bytes into the block
// decoder; every outcome must be an error or a (wrong) result, never a
// panic. The block claims 1 GiB, so nearly a third of the random stage-1
// lengths pass the bound and reach the table and symbol decoders.
func TestDecompressBlockNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(200)
		garbage := make([]byte, n)
		rng.Read(garbage)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: decompressBlock panicked: %v", trial, r)
				}
			}()
			_, _ = decompressBlock(garbage, 1<<30)
		}()
	}
}

// TestDecompressContainerNeverPanics does the same through the public
// entry point with a valid header and corrupted payload.
func TestDecompressContainerNeverPanics(t *testing.T) {
	base, err := Compress(genText(20000, 12), Options{BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		corrupt := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: Decompress panicked: %v", trial, r)
				}
			}()
			_, _ = Decompress(corrupt, 2)
		}()
	}
}

// TestHuffmanDecoderRandomBits drives the canonical decoder with random
// bit streams: it must consume or error, never hang or panic.
func TestHuffmanDecoderRandomBits(t *testing.T) {
	freq := make([]int64, alphaSize)
	rng := rand.New(rand.NewSource(14))
	for i := range freq {
		freq[i] = int64(1 + rng.Intn(100))
	}
	dec, err := huffman.NewDecoder(huffman.BuildLengths(freq, huffman.MaxCodeLen))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		raw := make([]byte, 1+rng.Intn(64))
		rng.Read(raw)
		r := bitio.NewReader(raw)
		for {
			if _, err := dec.Decode(r); err != nil {
				break
			}
		}
	}
}

// TestEmptyBlockInMultiBlockStream exercises the degenerate all-empty
// and single-byte block paths.
func TestEmptyBlockInMultiBlockStream(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 37)
		}
		comp, err := Compress(data, Options{BlockSize: 2})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := Decompress(comp, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: got %d bytes", n, len(got))
		}
		for i := range got {
			if got[i] != data[i] {
				t.Fatalf("n=%d: byte %d differs", n, i)
			}
		}
	}
}

// TestBlockStreamSizesRecorded sanity-checks the container chunk table
// against the actual payload.
func TestBlockStreamSizesRecorded(t *testing.T) {
	data := genText(50000, 15)
	comp, err := Compress(data, Options{BlockSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	h, off, err := format.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if h.PayloadLen() != len(comp)-off {
		t.Fatalf("chunk table says %d payload bytes, container has %d", h.PayloadLen(), len(comp)-off)
	}
	if want := (len(data) + 8191) / 8192; len(h.ChunkSizes) != want {
		t.Fatalf("blocks = %d, want %d", len(h.ChunkSizes), want)
	}
}
