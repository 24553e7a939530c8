package format

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func sampleHeader() *Header {
	return &Header{
		Codec:       CodecCULZSSV1,
		MinMatch:    3,
		Window:      128,
		Lookahead:   18,
		ChunkSize:   4096,
		OriginalLen: 10000,
		Checksum:    0xDEADBEEF,
		ChunkSizes:  []int{4000, 3800, 1500},
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	enc := AppendHeader(nil, h)
	payload := make([]byte, h.PayloadLen())
	enc = append(enc, payload...)

	got, off, err := ParseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if off != len(enc)-len(payload) {
		t.Fatalf("payload offset = %d, want %d", off, len(enc)-len(payload))
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, h)
	}
}

func TestHeaderRoundTripSingleChunk(t *testing.T) {
	h := &Header{
		Codec:       CodecSerialBitPacked,
		MinMatch:    3,
		Window:      4096,
		Lookahead:   18,
		ChunkSize:   0,
		OriginalLen: 555,
		Checksum:    1,
		ChunkSizes:  []int{300},
	}
	enc := AppendHeader(nil, h)
	enc = append(enc, make([]byte, 300)...)
	got, _, err := ParseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("mismatch: got %+v want %+v", got, h)
	}
}

func TestParseHeaderBadMagic(t *testing.T) {
	enc := AppendHeader(nil, sampleHeader())
	enc[0] = 'X'
	if _, _, err := ParseHeader(enc); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestParseHeaderBadVersion(t *testing.T) {
	enc := AppendHeader(nil, sampleHeader())
	enc[4] = 99
	if _, _, err := ParseHeader(enc); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestParseHeaderBadCodec(t *testing.T) {
	h := sampleHeader()
	h.Codec = Codec(200)
	enc := AppendHeader(nil, h)
	enc = append(enc, make([]byte, h.PayloadLen())...)
	if _, _, err := ParseHeader(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestParseHeaderNonzeroReserved(t *testing.T) {
	enc := AppendHeader(nil, sampleHeader())
	enc[7] = 1
	if _, _, err := ParseHeader(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestParseHeaderTruncation(t *testing.T) {
	h := sampleHeader()
	full := AppendHeader(nil, h)
	full = append(full, make([]byte, h.PayloadLen())...)
	// Every prefix strictly inside the header+payload region must error,
	// never panic.
	headerLen := len(full) - h.PayloadLen()
	for i := 0; i < headerLen; i++ {
		if _, _, err := ParseHeader(full[:i]); err == nil {
			t.Fatalf("ParseHeader accepted %d-byte truncation of %d-byte header", i, headerLen)
		}
	}
	// Truncating the payload must also be caught by Validate.
	if _, _, err := ParseHeader(full[:len(full)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("payload truncation: err = %v, want ErrTruncated", err)
	}
}

func TestParseHeaderChunkCountMismatch(t *testing.T) {
	h := sampleHeader()
	h.ChunkSizes = h.ChunkSizes[:2] // 10000/4096 needs 3 chunks
	enc := AppendHeader(nil, h)
	enc = append(enc, make([]byte, h.PayloadLen())...)
	if _, _, err := ParseHeader(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestParseHeaderRandomCorruption(t *testing.T) {
	h := sampleHeader()
	full := AppendHeader(nil, h)
	full = append(full, make([]byte, h.PayloadLen())...)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		corrupt := append([]byte(nil), full...)
		n := rng.Intn(4) + 1
		for i := 0; i < n; i++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		// Must never panic; errors are fine, silent acceptance of a
		// header that then disagrees with itself is caught by Validate.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			_, _, _ = ParseHeader(corrupt)
		}()
	}
}

func TestChunkBounds(t *testing.T) {
	h := sampleHeader()
	bounds := h.ChunkBounds()
	if len(bounds) != 3 {
		t.Fatalf("len = %d", len(bounds))
	}
	want := []ChunkBound{
		{Index: 0, UncompOff: 0, UncompLen: 4096, CompOff: 0, CompLen: 4000},
		{Index: 1, UncompOff: 4096, UncompLen: 4096, CompOff: 4000, CompLen: 3800},
		{Index: 2, UncompOff: 8192, UncompLen: 10000 - 8192, CompOff: 7800, CompLen: 1500},
	}
	if !reflect.DeepEqual(bounds, want) {
		t.Fatalf("bounds mismatch:\ngot  %+v\nwant %+v", bounds, want)
	}
}

func TestChunkBoundsSingle(t *testing.T) {
	h := &Header{ChunkSize: 0, OriginalLen: 777, ChunkSizes: []int{100}}
	b := h.ChunkBounds()
	if len(b) != 1 || b[0].UncompLen != 777 || b[0].CompLen != 100 {
		t.Fatalf("bounds = %+v", b)
	}
}

func TestSplitChunks(t *testing.T) {
	data := make([]byte, 10)
	for i := range data {
		data[i] = byte(i)
	}
	chunks := SplitChunks(data, 4)
	if len(chunks) != 3 {
		t.Fatalf("len = %d", len(chunks))
	}
	if len(chunks[0]) != 4 || len(chunks[1]) != 4 || len(chunks[2]) != 2 {
		t.Fatalf("chunk lens = %d %d %d", len(chunks[0]), len(chunks[1]), len(chunks[2]))
	}
	if chunks[2][1] != 9 {
		t.Fatalf("chunk content wrong")
	}
}

func TestSplitChunksEdgeCases(t *testing.T) {
	if got := SplitChunks(nil, 4); got != nil {
		t.Fatalf("SplitChunks(nil) = %v", got)
	}
	one := SplitChunks([]byte{1, 2}, 0)
	if len(one) != 1 || len(one[0]) != 2 {
		t.Fatalf("chunkSize 0 should give one chunk, got %v", one)
	}
	one = SplitChunks([]byte{1, 2}, 100)
	if len(one) != 1 {
		t.Fatalf("oversized chunkSize should give one chunk, got %v", one)
	}
}

func TestSplitChunksProperty(t *testing.T) {
	f := func(data []byte, szRaw uint8) bool {
		sz := int(szRaw)
		chunks := SplitChunks(data, sz)
		var rejoined []byte
		for _, c := range chunks {
			rejoined = append(rejoined, c...)
		}
		if len(data) == 0 {
			return len(rejoined) == 0
		}
		return string(rejoined) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecString(t *testing.T) {
	cases := map[Codec]string{
		CodecSerialBitPacked:  "serial-lzss",
		CodecChunkedBitPacked: "pthread-lzss",
		CodecCULZSSV1:         "culzss-v1",
		CodecCULZSSV2:         "culzss-v2",
		CodecBZip2:            "bzip2",
		Codec(77):             "codec(77)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Codec(%d).String() = %q, want %q", c, got, want)
		}
	}
}

func TestChecksum32(t *testing.T) {
	// CRC-32 (IEEE) of "123456789" is the well-known check value 0xCBF43926.
	if got := Checksum32([]byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("Checksum32 = %#x, want 0xCBF43926", got)
	}
}

// TestRunChunks pins the host chunk pool's rules: every index of the
// range runs exactly once on success, no more than workers run at once,
// and with several failing indexes the lowest one's error comes back,
// after every index below it has run.
func TestRunChunks(t *testing.T) {
	for _, tc := range []struct {
		name           string
		lo, hi, worker int
		fail           []int
	}{
		{name: "empty", lo: 3, hi: 3, worker: 4},
		{name: "one index", lo: 5, hi: 6, worker: 4},
		{name: "one index fails", lo: 5, hi: 6, worker: 4, fail: []int{5}},
		{name: "workers 0", lo: 0, hi: 50, worker: 0},
		{name: "workers 1", lo: 2, hi: 40, worker: 1},
		{name: "workers 1 fails", lo: 2, hi: 40, worker: 1, fail: []int{30, 9}},
		{name: "more workers than indexes", lo: 10, hi: 13, worker: 16},
		{name: "several", lo: 0, hi: 200, worker: 3},
		{name: "several fail", lo: 0, hi: 200, worker: 3, fail: []int{170, 41, 42, 199}},
		{name: "workers 0 fail", lo: 7, hi: 300, worker: 0, fail: []int{8, 299}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failing := map[int]bool{}
			for _, i := range tc.fail {
				failing[i] = true
			}
			runs := make([]atomic.Int32, tc.hi)
			var active, peak atomic.Int32
			err := RunChunks(tc.lo, tc.hi, tc.worker, func(i int) error {
				if n := active.Add(1); n > peak.Load() {
					peak.Store(n)
				}
				defer active.Add(-1)
				runtime.Gosched()
				runs[i].Add(1)
				if failing[i] {
					return fmt.Errorf("chunk %d", i)
				}
				return nil
			})
			limit := tc.worker
			if limit <= 0 {
				limit = runtime.GOMAXPROCS(0)
			}
			if p := int(peak.Load()); p > limit {
				t.Fatalf("%d chunks ran at once, limit %d", p, limit)
			}
			lowest := tc.hi
			for _, i := range tc.fail {
				lowest = min(lowest, i)
			}
			if lowest == tc.hi {
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
			} else if want := fmt.Sprintf("chunk %d", lowest); err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
			for i := range runs {
				n := runs[i].Load()
				switch {
				case i < tc.lo && n != 0:
					t.Fatalf("index %d outside [%d, %d) ran", i, tc.lo, tc.hi)
				case i >= tc.lo && i <= lowest && i < tc.hi && n != 1:
					t.Fatalf("index %d ran %d times, want once", i, n)
				case n > 1:
					t.Fatalf("index %d ran %d times", i, n)
				}
			}
		})
	}
}

// TestAssemble: the assembled container parses back to the header's
// fields and the streams in order, and empty data has an empty chunk
// table.
func TestAssemble(t *testing.T) {
	data := []byte("abcdefghij")
	streams := [][]byte{[]byte("xy"), nil, []byte("z")}
	c := Assemble(&Header{Codec: CodecCULZSSV1, Window: 128, Lookahead: 18, MinMatch: 3, ChunkSize: 4}, data, streams)
	h, off, err := ParseHeader(c)
	if err != nil {
		t.Fatal(err)
	}
	want := &Header{Codec: CodecCULZSSV1, Window: 128, Lookahead: 18, MinMatch: 3, ChunkSize: 4,
		OriginalLen: len(data), Checksum: Checksum32(data), ChunkSizes: []int{2, 0, 1}}
	if !reflect.DeepEqual(h, want) || !bytes.Equal(c[off:], []byte("xyz")) {
		t.Fatalf("got %+v payload %q", h, c[off:])
	}
	if h, _, err := ParseHeader(Assemble(&Header{Codec: CodecStoreRaw}, nil, nil)); err != nil || len(h.ChunkSizes) != 0 {
		t.Fatalf("empty: %+v, %v", h, err)
	}
}
