package cpulzss

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"culzss/internal/format"
	"culzss/internal/lzss"
)

func genText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"int", "return", "for", "while", "struct", "static", "void", "char", "buffer", "window"}
	var sb strings.Builder
	for sb.Len() < n {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	return []byte(sb.String()[:n])
}

func TestSerialRoundTrip(t *testing.T) {
	input := genText(20000, 1)
	comp, err := CompressSerial(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(input) {
		t.Fatalf("no compression on text: %d -> %d", len(input), len(comp))
	}
	got, err := Decompress(comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, input) {
		t.Fatal("round trip mismatch")
	}
}

func TestSerialEmptyInput(t *testing.T) {
	comp, err := CompressSerial(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestCompressRefusesMinMatchBeyondHeader(t *testing.T) {
	// The header records MinMatch in 8 bits: 300 would be written as 44,
	// and the stream would not decode.
	cfg := lzss.Config{Window: 4096, MaxMatch: 400, MinMatch: 300}
	input := make([]byte, 800)
	if comp, err := CompressSerial(input, Options{Config: cfg}); err == nil {
		t.Errorf("serial returned a %d-byte container", len(comp))
	}
	if comp, err := CompressParallel(input, Options{Config: cfg}); err == nil {
		t.Errorf("pthread returned a %d-byte container", len(comp))
	}
}

func TestParallelRoundTrip(t *testing.T) {
	input := genText(100000, 2)
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{1024, 4096, 1 << 20} {
			comp, err := CompressParallel(input, Options{ChunkSize: chunk, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decompress(comp, workers)
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if !bytes.Equal(got, input) {
				t.Fatalf("workers=%d chunk=%d: round trip mismatch", workers, chunk)
			}
		}
	}
}

func TestParallelMatchesHeaderMetadata(t *testing.T) {
	input := genText(10000, 3)
	comp, err := CompressParallel(input, Options{ChunkSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := format.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if h.Codec != format.CodecChunkedBitPacked {
		t.Fatalf("codec = %v", h.Codec)
	}
	if len(h.ChunkSizes) != 3 {
		t.Fatalf("chunks = %d, want 3", len(h.ChunkSizes))
	}
	if h.OriginalLen != len(input) {
		t.Fatalf("originalLen = %d", h.OriginalLen)
	}
}

func TestParallelSameRatioBallparkAsSerial(t *testing.T) {
	// The pthread version sacrifices a little ratio at chunk boundaries
	// (windows do not cross chunks) but must stay close to serial.
	input := genText(200000, 4)
	ser, err := CompressSerial(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompressParallel(input, Options{ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(par)) > float64(len(ser))*1.05 {
		t.Fatalf("parallel ratio drifted: serial %d, parallel %d", len(ser), len(par))
	}
}

// TestDecompressAdmitsMostCompressibleInput: the payload bound that
// rejects overlong claims admits the longest expansion real streams
// reach, all-maximal matches, also with the widest fields a header may
// carry.
func TestDecompressAdmitsMostCompressibleInput(t *testing.T) {
	input := make([]byte, 1<<20)
	for _, cfg := range []lzss.Config{lzss.Dipperstein(), {Window: 1, MaxMatch: 1<<16 + 2, MinMatch: 3}} {
		for _, compress := range []func([]byte, Options) ([]byte, error){CompressSerial, CompressParallel} {
			comp, err := compress(input, Options{Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decompress(comp, 0)
			if err != nil || !bytes.Equal(got, input) {
				t.Fatalf("%+v: %d-byte container of 1 MiB of zeros: %v", cfg, len(comp), err)
			}
		}
	}
}

func TestDecompressRejectsWrongCodec(t *testing.T) {
	h := &format.Header{
		Codec: format.CodecBZip2, MinMatch: 3, Window: 128, Lookahead: 18,
		OriginalLen: 0,
	}
	cont := format.AppendHeader(nil, h)
	if _, err := Decompress(cont, 0); err == nil {
		t.Fatal("accepted bzip2 container")
	}
}

func TestDecompressChecksumMismatch(t *testing.T) {
	input := genText(5000, 5)
	comp, err := CompressSerial(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: decode may fail structurally or produce wrong
	// bytes; either way the result must be an error, and if the stream
	// still parses it must be the checksum error.
	corrupt := append([]byte(nil), comp...)
	corrupt[len(corrupt)-1] ^= 0xFF
	_, err = Decompress(corrupt, 0)
	if err == nil {
		t.Fatal("accepted corrupted payload")
	}
	if !errors.Is(err, format.ErrChecksum) && !errors.Is(err, lzss.ErrCorrupt) && !errors.Is(err, lzss.ErrTruncated) {
		t.Fatalf("unexpected error kind: %v", err)
	}
}

func TestDecompressTruncatedContainer(t *testing.T) {
	input := genText(5000, 6)
	comp, err := CompressParallel(input, Options{ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(comp) / 4, len(comp) / 2, len(comp) - 1} {
		if _, err := Decompress(comp[:cut], 0); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	input := genText(20000, 7)
	var ser, par lzss.SearchStats
	if _, err := CompressSerial(input, Options{Stats: &ser}); err != nil {
		t.Fatal(err)
	}
	if _, err := CompressParallel(input, Options{Stats: &par, ChunkSize: 4096}); err != nil {
		t.Fatal(err)
	}
	if ser.Positions == 0 || par.Positions == 0 {
		t.Fatalf("stats not accumulated: serial %+v parallel %+v", ser, par)
	}
	// Both visit roughly one position per emitted token; the totals must
	// be in the same ballpark.
	if par.Positions > ser.Positions*2 || ser.Positions > par.Positions*2 {
		t.Fatalf("implausible stats: serial %+v parallel %+v", ser, par)
	}
}

func TestQuickRoundTripParallel(t *testing.T) {
	cfgQuick := &quick.Config{MaxCount: 30}
	f := func(data []byte, chunkSeed uint8) bool {
		chunk := 64 + int(chunkSeed)*8
		comp, err := CompressParallel(data, Options{ChunkSize: chunk, Config: lzss.CULZSSV1()})
		if err != nil {
			return false
		}
		got, err := Decompress(comp, 4)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, cfgQuick); err != nil {
		t.Fatal(err)
	}
}

func TestSerialHashChainEquivalentOutput(t *testing.T) {
	input := genText(30000, 8)
	brute, err := CompressSerial(input, Options{Search: lzss.SearchBrute})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := CompressSerial(input, Options{Search: lzss.SearchHashChain})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(brute, hash) {
		t.Fatal("hash-chain output differs from brute force")
	}
}
