package lzss

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"culzss/internal/datasets"
)

// referenceDecodeByteAligned is the one-append-per-byte decoder that
// defines AppendDecodedByteAligned's bytes and errors: every check in
// the same order, with the same sentinel and message.
func referenceDecodeByteAligned(dst, comp []byte, originalLen int, cfg Config) ([]byte, error) {
	base := len(dst)
	pos := 0
	for len(dst)-base < originalLen {
		if pos >= len(comp) {
			return nil, fmt.Errorf("%w: flag byte missing", ErrTruncated)
		}
		flags := comp[pos]
		pos++
		for bit := 0; bit < 8 && len(dst)-base < originalLen; bit++ {
			if flags&(1<<(7-bit)) == 0 {
				if pos >= len(comp) {
					return nil, fmt.Errorf("%w: literal missing", ErrTruncated)
				}
				dst = append(dst, comp[pos])
				pos++
				continue
			}
			if pos+2 > len(comp) {
				return nil, fmt.Errorf("%w: coded token missing", ErrTruncated)
			}
			dist := int(comp[pos]) + 1
			length := int(comp[pos+1]) + cfg.MinMatch
			pos += 2
			if dist > len(dst)-base {
				return nil, fmt.Errorf("%w: distance %d exceeds produced output %d", ErrCorrupt, dist, len(dst)-base)
			}
			if len(dst)-base+length > originalLen {
				return nil, fmt.Errorf("%w: match overruns declared length", ErrCorrupt)
			}
			from := len(dst) - dist
			for i := 0; i < length; i++ {
				dst = append(dst, dst[from+i])
			}
		}
	}
	return dst, nil
}

// chunkLen is the GPU codecs' chunk size: each chunk is a stream of its
// own, as gpu.DecompressInto decodes it.
const chunkLen = 4 << 10

// encodeChunks encodes data in independent chunkLen chunks under cfg.
func encodeChunks(tb testing.TB, data []byte, cfg Config) [][]byte {
	tb.Helper()
	var comps [][]byte
	for off := 0; off < len(data); off += chunkLen {
		comp, err := EncodeByteAligned(data[off:min(off+chunkLen, len(data))], cfg, SearchBrute, nil)
		if err != nil {
			tb.Fatal(err)
		}
		comps = append(comps, comp)
	}
	return comps
}

// checkDecodeByteAligned fails t unless AppendDecodedByteAligned agrees
// with the reference on comp: the same bytes, or an error with the same
// sentinel and message. It decodes into a slot of exactly originalLen
// cut from a larger array, into a dst with a prefix and spare capacity,
// and into nil; the first two must write nothing outside the originalLen
// bytes after dst's length.
func checkDecodeByteAligned(t *testing.T, comp []byte, originalLen int, cfg Config, prefix, spare int) {
	t.Helper()
	want, werr := referenceDecodeByteAligned(nil, comp, originalLen, cfg)
	check := func(name string, got []byte, err error, base int) {
		t.Helper()
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: cfg %+v, %d bytes to %d: error %v, reference %v", name, cfg, len(comp), originalLen, err, werr)
		}
		if err != nil {
			for _, sentinel := range []error{ErrTruncated, ErrCorrupt} {
				if errors.Is(err, sentinel) != errors.Is(werr, sentinel) {
					t.Fatalf("%s: error %q, reference %q: sentinels differ", name, err, werr)
				}
			}
			if err.Error() != werr.Error() {
				t.Fatalf("%s: error %q, reference %q", name, err, werr)
			}
			return
		}
		if len(got) != base+len(want) || !bytes.Equal(got[base:], want) {
			t.Fatalf("%s: cfg %+v, %d bytes to %d: decoded bytes differ from the reference", name, cfg, len(comp), originalLen)
		}
	}
	const guard = 0xa5
	filled := func(n int) []byte { return bytes.Repeat([]byte{guard}, n) }
	untouched := func(name string, b []byte) {
		t.Helper()
		for i, c := range b {
			if c != guard {
				t.Fatalf("%s: byte %d outside the slot changed", name, i)
			}
		}
	}

	const pad = 16
	arr := filled(pad + originalLen + pad)
	got, err := AppendDecodedByteAligned(arr[pad:pad:pad+originalLen], comp, originalLen, cfg)
	check("slot", got, err, 0)
	untouched("slot", arr[:pad])
	untouched("slot", arr[pad+originalLen:])

	arr = filled(prefix + originalLen + spare)
	got, err = AppendDecodedByteAligned(arr[:prefix], comp, originalLen, cfg)
	check("spare capacity", got, err, prefix)
	untouched("spare capacity", arr[:prefix])
	untouched("spare capacity", arr[prefix+originalLen:])
	if err == nil && originalLen > 0 && &got[0] != &arr[0] {
		t.Fatal("spare capacity: decode left the array dst had room in")
	}

	got, err = AppendDecodedByteAligned(nil, comp, originalLen, cfg)
	check("nil", got, err, 0)
}

// datasetChunks returns each dataset's first chunkLen bytes encoded
// under V1 (config 0) and V2 (config 1).
func datasetChunks(tb testing.TB) (chunks []datasetChunk) {
	for _, g := range datasets.All() {
		data := g.Gen(chunkLen, 1)
		for sel, cfg := range []Config{CULZSSV1(), CULZSSV2()} {
			chunks = append(chunks, datasetChunk{encodeChunks(tb, data, cfg)[0], uint8(sel)})
		}
	}
	return chunks
}

type datasetChunk struct {
	comp   []byte
	config uint8
}

// TestDecodeByteAlignedEveryCut decodes every dataset chunk cut at every
// byte, so each truncation error is met at every token position. A cut
// decodes all that precedes it, so the sweep's cost grows with the square
// of a chunk's length; under -short, or -race with its instrumented byte
// loops, it cuts only within each chunk's first 512 bytes.
func TestDecodeByteAlignedEveryCut(t *testing.T) {
	for _, c := range datasetChunks(t) {
		cfg := []Config{CULZSSV1(), CULZSSV2()}[c.config]
		last := len(c.comp)
		if testing.Short() || raceEnabled {
			last = min(last, 512)
		}
		for cut := 0; cut <= last; cut++ {
			checkDecodeByteAligned(t, c.comp[:cut], chunkLen, cfg, cut%16, cut%9)
		}
	}
}

// FuzzDecodeByteAligned checks AppendDecodedByteAligned against the
// reference decoder. Its seeds are the dataset chunks, whole and cut in
// half (TestDecodeByteAlignedEveryCut takes every cut), and
// TestDecodersNeverPanicOnGarbage's shapes.
func FuzzDecodeByteAligned(f *testing.F) {
	for _, c := range datasetChunks(f) {
		f.Add(c.comp, uint16(chunkLen), c.config, uint8(0), uint8(0))
		f.Add(c.comp[:len(c.comp)/2], uint16(chunkLen), c.config, uint8(0), uint8(0x35))
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		garbage := make([]byte, rng.Intn(64))
		rng.Read(garbage)
		f.Add(garbage, uint16(rng.Intn(256)), uint8(trial%3), uint8(0), uint8(0))
	}
	f.Fuzz(func(t *testing.T, comp []byte, originalLen uint16, config, minExtra, shape uint8) {
		var cfg Config
		switch config % 3 {
		case 0:
			cfg = CULZSSV1()
		case 1:
			cfg = CULZSSV2()
		default:
			// Any valid byte-aligned configuration; the decoder reads
			// only MinMatch.
			cfg = Config{Window: 1 + int(config)%256, MinMatch: 2 + int(minExtra)%254}
			cfg.MaxMatch = cfg.MinMatch + int(shape)
		}
		if cfg.Validate() != nil || cfg.byteAlignedOK() != nil {
			t.Fatalf("invalid config %+v", cfg)
		}
		checkDecodeByteAligned(t, comp, int(originalLen)%(8<<10+1), cfg, int(shape%16), int(shape/16))
	})
}

// BenchmarkDecodeByteAligned decodes each dataset's 1 MiB as the chunkLen
// chunks of a V1 and a V2 container, each into its own slot of one output
// buffer, as gpu.DecompressInto does: with AppendDecodedByteAligned, and
// with the reference decoder it replaced.
func BenchmarkDecodeByteAligned(b *testing.B) {
	decoders := []struct {
		name   string
		decode func(dst, comp []byte, originalLen int, cfg Config) ([]byte, error)
	}{{"word", AppendDecodedByteAligned}, {"reference", referenceDecodeByteAligned}}
	for _, g := range datasets.All() {
		data := g.Gen(1<<20, 1)
		for _, v := range []struct {
			name string
			cfg  Config
		}{{"v1", CULZSSV1()}, {"v2", CULZSSV2()}} {
			comps := encodeChunks(b, data, v.cfg)
			for _, d := range decoders {
				b.Run(g.Key+"/"+v.name+"/"+d.name, func(b *testing.B) {
					out := make([]byte, len(data))
					b.SetBytes(int64(len(data)))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for c, comp := range comps {
							off := c * chunkLen
							n := min(chunkLen, len(data)-off)
							if _, err := d.decode(out[off:off:off+n], comp, n, v.cfg); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.StopTimer()
					if !bytes.Equal(out, data) {
						b.Fatal("decoded bytes differ from the input")
					}
				})
			}
		}
	}
}
