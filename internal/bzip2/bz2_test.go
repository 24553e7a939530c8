package bzip2

import (
	"bytes"
	stdbzip2 "compress/bzip2"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// roundTripStd encodes with this package and decodes with the standard
// library's independent bzip2 reader — the strongest cross-validation of
// the whole RLE/BWT/MTF/Huffman pipeline available offline.
func roundTripStd(t *testing.T, data []byte, level int) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBZ2(&buf, data, level); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := io.ReadAll(stdbzip2.NewReader(&buf))
	if err != nil {
		t.Fatalf("stdlib decode: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(data), len(got))
	}
}

// stdlibCases are the edge cases, runs, text and random inputs that the
// standard library's reader must decode.
func stdlibCases() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	randBytes := make([]byte, 50000)
	rng.Read(randBytes)
	var text strings.Builder
	words := []string{"block", "sorting", "huffman", "the", "transform", "of"}
	for text.Len() < 200000 {
		text.WriteString(words[rng.Intn(len(words))])
		text.WriteByte(' ')
	}
	return map[string][]byte{
		"empty":     {},
		"one":       {42},
		"short":     []byte("hello, bzip2 world"),
		"runs":      bytes.Repeat([]byte{'a'}, 10000),
		"run_break": append(bytes.Repeat([]byte{'x'}, 300), []byte("tail")...),
		"period20":  bytes.Repeat([]byte("abcdefghijklmnopqrst"), 2000),
		"text":      []byte(text.String()),
		"random":    randBytes,
		"all_bytes": func() []byte {
			b := make([]byte, 256)
			for i := range b {
				b[i] = byte(i)
			}
			return b
		}(),
		"zeros": make([]byte, 30000),
		"alt":   bytes.Repeat([]byte{0, 255}, 5000),
	}
}

func TestStdlibDecodesOurOutput(t *testing.T) {
	for name, data := range stdlibCases() {
		t.Run(name, func(t *testing.T) {
			roundTripStd(t, data, 9)
		})
	}
}

func TestAllLevels(t *testing.T) {
	data := bytes.Repeat([]byte("level sweep content with some repetition; "), 1000)
	for level := 1; level <= 9; level++ {
		roundTripStd(t, data, level)
	}
	var buf bytes.Buffer
	if err := EncodeBZ2(&buf, data, 0); err == nil {
		t.Fatal("accepted level 0")
	}
	if err := EncodeBZ2(&buf, data, 10); err == nil {
		t.Fatal("accepted level 10")
	}
}

// multiBlockInput is 350 kB of text with scattered runs: four blocks at
// level 1, which exercises the stream CRC combination.
func multiBlockInput() []byte {
	rng := rand.New(rand.NewSource(2))
	var sb strings.Builder
	for sb.Len() < 350000 {
		sb.WriteString("multi block stream content ")
		if rng.Intn(10) == 0 {
			sb.WriteString(strings.Repeat("z", rng.Intn(300)))
		}
	}
	return []byte(sb.String())
}

func TestMultiBlockStreams(t *testing.T) {
	roundTripStd(t, multiBlockInput(), 1)
}

// TestStage1GrowthStaysInBlock: runs of exactly four bytes make stage 1
// a quarter longer than its input, and the format bounds a block's
// stage-1 output, so a full level-1 block of them must move input into
// the next block.
func TestStage1GrowthStaysInBlock(t *testing.T) {
	var data []byte
	for i := 0; len(data) < 100_000; i++ {
		data = append(data, bytes.Repeat([]byte{byte('a' + i%26)}, 4)...)
	}
	roundTripStd(t, data, 1)
}

// FuzzEncodeBZ2 checks both serializations of the shared stages on any
// input: the standard library's reader must decode the .bz2 writer's
// output back to it, and the container must round-trip it.
func FuzzEncodeBZ2(f *testing.F) {
	for _, data := range stdlibCases() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTripStd(t, data, 1)
		comp, err := Compress(data, Options{BlockSize: 4096, Workers: 1})
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		got, err := Decompress(comp, 1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("container round trip: %v", err)
		}
	})
}

func TestCompressesText(t *testing.T) {
	data := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 2000)
	var buf bytes.Buffer
	if err := EncodeBZ2(&buf, data, 9); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > len(data)/10 {
		t.Fatalf("repetitive text compressed to only %d/%d", buf.Len(), len(data))
	}
}

func TestCRC32bzKnownValue(t *testing.T) {
	// The unreflected CRC-32/BZIP2 check value for "123456789".
	if got := crc32bz([]byte("123456789")); got != 0xFC891918 {
		t.Fatalf("crc32bz = %#x, want 0xFC891918", got)
	}
}

func TestRLE1FormatCap(t *testing.T) {
	// The format caps a run unit at 4+251 = 255 source bytes.
	enc := rle1Encode(bytes.Repeat([]byte{'q'}, 1000), bz2MaxRun)
	for i := 0; i+4 < len(enc); {
		if enc[i] == enc[i+1] && enc[i] == enc[i+2] && enc[i] == enc[i+3] {
			if enc[i+4] > 251 {
				t.Fatalf("count byte %d exceeds format cap 251", enc[i+4])
			}
			i += 5
			continue
		}
		i++
	}
}

func TestHeaderBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBZ2(&buf, []byte("x"), 7); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()[:4]
	if string(hdr) != "BZh7" {
		t.Fatalf("header = %q", hdr)
	}
}
