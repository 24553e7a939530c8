package bzip2

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"culzss/internal/bzip2/bwt"
	"culzss/internal/format"
)

func genText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"block", "sorting", "transform", "huffman", "selector", "entropy", "symbol", "stream"}
	var sb strings.Builder
	for sb.Len() < n {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	return []byte(sb.String()[:n])
}

func TestMTFRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(mtfDecode(mtfEncode(data, byteValues[:])), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMTFKnownValues(t *testing.T) {
	// "aaa" -> first 'a' is at index 97, then front.
	got := mtfEncode([]byte("aaa"), byteValues[:])
	if got[0] != 97 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("mtf(aaa) = %v", got)
	}
	// After 'a' moved to front, 'b' sits at index 98.
	got = mtfEncode([]byte("ab"), byteValues[:])
	if got[0] != 97 || got[1] != 98 {
		t.Fatalf("mtf(ab) = %v", got)
	}
	got = mtfEncode([]byte("aba"), byteValues[:])
	if got[2] != 1 {
		t.Fatalf("mtf(aba)[2] = %d, want 1", got[2])
	}
}

func TestRLE1RoundTrip(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte("abc"),
		[]byte("aaaa"),
		[]byte("aaaab"),
		bytes.Repeat([]byte{'x'}, 259),
		bytes.Repeat([]byte{'x'}, 260),
		bytes.Repeat([]byte{'x'}, 1000),
		[]byte("aaabbbbccccc"),
	}
	for _, in := range inputs {
		enc := rle1Encode(in, rle1MaxRun)
		dec, err := rle1Decode(enc, len(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !bytes.Equal(dec, in) {
			t.Fatalf("%q: round trip mismatch (%q)", in, dec)
		}
	}
}

func TestRLE1CompressesRuns(t *testing.T) {
	in := bytes.Repeat([]byte{'z'}, 1000)
	enc := rle1Encode(in, rle1MaxRun)
	if len(enc) > 30 {
		t.Fatalf("1000-byte run encoded to %d bytes", len(enc))
	}
}

func TestRLE1RejectsTruncation(t *testing.T) {
	enc := rle1Encode(bytes.Repeat([]byte{'q'}, 100), rle1MaxRun)
	if _, err := rle1Decode(enc[:len(enc)-1], 100); err == nil {
		t.Fatal("accepted truncated RLE1")
	}
}

func TestRLE1Quick(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := rle1Decode(rle1Encode(data, rle1MaxRun), len(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRLE2RoundTrip(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0},
		{0, 0, 0, 0, 0, 0, 0},
		{1, 2, 3},
		{0, 5, 0, 0, 9, 0, 0, 0},
		bytes.Repeat([]byte{0}, 1000),
		{255, 0, 255},
	}
	for _, in := range inputs {
		syms := rle2Encode(in, symEOB)
		if syms[len(syms)-1] != symEOB {
			t.Fatalf("%v: missing EOB", in)
		}
		dec, err := rle2Decode(syms, len(in))
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		if !bytes.Equal(dec, in) && !(len(dec) == 0 && len(in) == 0) {
			t.Fatalf("%v: got %v", in, dec)
		}
	}
}

func TestRLE2ZeroRunsCrush(t *testing.T) {
	in := bytes.Repeat([]byte{0}, 10000)
	syms := rle2Encode(in, symEOB)
	// 10000 zeros need ~log2(10000) RUNA/RUNB symbols plus EOB.
	if len(syms) > 20 {
		t.Fatalf("10000 zeros became %d symbols", len(syms))
	}
}

func TestRLE2Errors(t *testing.T) {
	if _, err := rle2Decode([]uint16{5}, 10); err == nil {
		t.Fatal("accepted stream without EOB")
	}
	if _, err := rle2Decode([]uint16{symEOB, 5}, 10); err == nil {
		t.Fatal("accepted data after EOB")
	}
	if _, err := rle2Decode(nil, 10); err == nil {
		t.Fatal("accepted empty stream")
	}
}

func TestRLE2Quick(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := rle2Decode(rle2Encode(data, symEOB), len(data))
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(dec) == 0
		}
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressRoundTrip(t *testing.T) {
	for name, input := range map[string][]byte{
		"empty":    {},
		"tiny":     []byte("a"),
		"text":     genText(300000, 1),
		"periodic": bytes.Repeat([]byte("abcdefghijklmnopqrst"), 5000),
		"random":   func() []byte { b := make([]byte, 100000); rand.New(rand.NewSource(2)).Read(b); return b }(),
		"zeros":    make([]byte, 50000),
	} {
		comp, err := Compress(input, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Decompress(comp, 0)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, input) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestCompressionRatioOnText(t *testing.T) {
	input := genText(500000, 3)
	comp, err := Compress(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(comp)) / float64(len(input))
	// Repetitive generated text should crush well below 35%.
	if ratio > 0.35 {
		t.Fatalf("bzip2 ratio on text = %.3f", ratio)
	}
}

func TestMultiBlockBoundaries(t *testing.T) {
	input := genText(2*DefaultBlockSize+12345, 4)
	comp, err := Compress(input, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := format.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.ChunkSizes) != 3 {
		t.Fatalf("blocks = %d, want 3", len(h.ChunkSizes))
	}
	got, err := Decompress(comp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, input) {
		t.Fatal("round trip mismatch")
	}
}

func TestSmallBlockSize(t *testing.T) {
	input := genText(10000, 5)
	comp, err := Compress(input, Options{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp, 0)
	if err != nil || !bytes.Equal(got, input) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestSortStatsSurface(t *testing.T) {
	var st bwt.Stats
	input := bytes.Repeat([]byte("abcdefghijklmnopqrst"), 5000)
	if _, err := Compress(input, Options{SortStats: &st, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if st.FallbackElems == 0 {
		t.Fatal("periodic data did not reach the fallback sort")
	}
}

func TestDecompressErrors(t *testing.T) {
	input := genText(50000, 6)
	comp, err := Compress(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong codec.
	wrong := append([]byte(nil), comp...)
	wrong[5] = byte(format.CodecSerialBitPacked)
	if _, err := Decompress(wrong, 0); err == nil {
		t.Fatal("accepted wrong codec")
	}
	// Truncations at various depths.
	for _, cut := range []int{8, len(comp) / 2, len(comp) - 2} {
		if _, err := Decompress(comp[:cut], 0); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	// Payload corruption must be detected (structure or checksum).
	for _, pos := range []int{len(comp) - 5, len(comp) / 2, len(comp) / 3} {
		corrupt := append([]byte(nil), comp...)
		corrupt[pos] ^= 0x01
		if _, err := Decompress(corrupt, 0); err == nil {
			t.Fatalf("accepted corruption at %d", pos)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		comp, err := Compress(data, Options{BlockSize: 4096})
		if err != nil {
			return false
		}
		got, err := Decompress(comp, 2)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNTablesHeuristic(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 2}, {199, 2}, {200, 3}, {599, 3}, {600, 4}, {1199, 4}, {1200, 5}, {2399, 5}, {2400, 6}, {1 << 20, 6},
	}
	for _, c := range cases {
		if got := nTablesFor(c.n); got != c.want {
			t.Errorf("nTablesFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestDecodersStopAtTheirClaims: each run-length decoder fails once its
// output would pass its limit, and a block whose stage-1 length is more
// than its claimed size can produce fails before its symbols decode.
func TestDecodersStopAtTheirClaims(t *testing.T) {
	if _, err := rle1Decode(rle1Encode(bytes.Repeat([]byte{'z'}, 1000), rle1MaxRun), 999); err == nil {
		t.Error("rle1Decode passed its limit")
	}
	if _, err := rle2Decode(rle2Encode(make([]byte, 1000), symEOB), 999); err == nil {
		t.Error("rle2Decode passed its limit in a zero run")
	}
	if _, err := rle2Decode(rle2Encode([]byte{1, 2, 3}, symEOB), 2); err == nil {
		t.Error("rle2Decode passed its limit with a literal")
	}
	data := genText(1000, 7)
	block := compressBlock(data, nil)
	if got, err := decompressBlock(block, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("block under its own claim: %v", err)
	}
	for _, c := range []struct {
		claim int
		want  string
	}{{999, "passes the block length"}, {100, "stage-1 length"}} {
		if _, err := decompressBlock(block, c.claim); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("block of %d bytes claiming %d: %v, want %q", len(data), c.claim, err, c.want)
		}
	}
}
