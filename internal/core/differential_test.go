package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"culzss/internal/codec"
	"culzss/internal/datasets"
	"culzss/internal/format"
)

// differentialCorpus is the shared adversarial corpus every codec must
// agree on: degenerate sizes, pathological content, and sizes straddling
// the chunk (4 KiB) and segment boundaries.
func differentialCorpus(segSize int) map[string][]byte {
	rng := rand.New(rand.NewSource(97))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	corpus := map[string][]byte{
		"empty":          {},
		"one-byte":       {0x42},
		"all-zeros":      make([]byte, 16<<10),
		"incompressible": random(32 << 10),
		"text":           datasets.CFiles(20<<10, 41),
		"repetitive":     bytes.Repeat([]byte("abcd"), 6<<10/4),
	}
	// Chunk-boundary-straddling sizes around the GPU 4 KiB chunk.
	for _, n := range []int{4095, 4096, 4097, 8191, 8193} {
		corpus[fmt.Sprintf("chunk-%d", n)] = datasets.KernelTarball(n, int64(n))
	}
	// Segment-boundary-straddling sizes for the framed stream mode.
	for _, d := range []int{-1, 0, 1} {
		n := segSize + d
		corpus[fmt.Sprintf("segment%+d", d)] = datasets.DEMap(n, int64(n))
	}
	return corpus
}

// labelledCodec pairs a registry codec name with its subtest label.
type labelledCodec struct{ label, name string }

// labelledCodecs are the explicit codecs the round-trip suites cover,
// under the subtest names those suites have always reported, so results
// stay comparable across commits.
var labelledCodecs = []labelledCodec{
	{"culzss-v1", "v1"},
	{"culzss-v2", "v2"},
	{"serial", "cpu"},
	{"parallel", "pthread"},
	{"bzip2", "bzip2"},
}

// TestDifferentialRoundTripAllCodecs is the cross-codec differential
// suite: every codec and the framed stream mode must reproduce every
// corpus entry byte-identically, with matching format.Checksum32, and
// every codec's container must open through the same Decompress dispatch.
func TestDifferentialRoundTripAllCodecs(t *testing.T) {
	const segSize = 8 << 10
	corpus := differentialCorpus(segSize)

	for name, input := range corpus {
		wantSum := format.Checksum32(input)
		for _, c := range labelledCodecs {
			t.Run(fmt.Sprintf("%s/%s", name, c.label), func(t *testing.T) {
				container, _, err := Compress(input, c.name, Params{})
				if err != nil {
					t.Fatalf("compress: %v", err)
				}
				h, _, err := format.ParseHeader(container)
				if err != nil {
					t.Fatalf("container header: %v", err)
				}
				if h.OriginalLen != len(input) {
					t.Fatalf("header OriginalLen = %d, want %d", h.OriginalLen, len(input))
				}
				if h.Checksum != wantSum {
					t.Fatalf("header checksum %08x, want %08x", h.Checksum, wantSum)
				}
				got, err := Decompress(container, Params{})
				if err != nil {
					t.Fatalf("decompress: %v", err)
				}
				if !bytes.Equal(got, input) {
					t.Fatalf("round trip mismatch: %d bytes in, %d out", len(input), len(got))
				}
				if format.Checksum32(got) != wantSum {
					t.Fatal("decoded checksum differs")
				}
			})
		}

		// The framed stream mode over the same corpus, every codec.
		for _, c := range labelledCodecs {
			t.Run(fmt.Sprintf("%s/framed-%s", name, c.label), func(t *testing.T) {
				var buf bytes.Buffer
				w := NewWriterOptions(&buf, Params{}, StreamOptions{Codec: c.name, SegmentSize: segSize})
				if _, err := w.Write(input); err != nil {
					t.Fatalf("stream write: %v", err)
				}
				if err := w.Close(); err != nil {
					t.Fatalf("stream close: %v", err)
				}
				r, err := NewReader(&buf, Params{})
				if err != nil {
					t.Fatalf("stream open: %v", err)
				}
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatalf("stream read: %v", err)
				}
				if !bytes.Equal(got, input) {
					t.Fatalf("framed round trip mismatch: %d bytes in, %d out", len(input), len(got))
				}
				if format.Checksum32(got) != wantSum {
					t.Fatal("framed decoded checksum differs")
				}
			})
		}
	}
}

// TestDifferentialStreamRepairAllEngines runs the full streaming story
// for every registered engine: a parallel Writer routed through the
// engine by registry name, parity frames, deterministic wire damage, and
// a parallel salvage+repair Reader that must reproduce the input
// byte-identically with every loss healed.
func TestDifferentialStreamRepairAllEngines(t *testing.T) {
	const segSize = 8 << 10
	// Mixed compressibility so no engine gets a trivially easy corpus:
	// text, log-like repetition, and an incompressible tail, ending on a
	// short final segment.
	rng := rand.New(rand.NewSource(31))
	input := datasets.CFiles(3*segSize, 61)
	input = append(input, datasets.HighlyCompressible(2*segSize, 62)...)
	tail := make([]byte, 2*segSize-segSize/3)
	rng.Read(tail)
	input = append(input, tail...)

	for _, eng := range codec.Engines() {
		t.Run(eng.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriterOptions(&buf, Params{HostWorkers: 4}, StreamOptions{
				SegmentSize: segSize,
				Codec:       eng.Name(),
				Parity:      ParityConfig{K: 4, M: 2},
			})
			if _, err := w.Write(input); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			stream := buf.Bytes()

			// Every segment frame must carry this engine's codec byte —
			// the per-frame wire mechanism the PR-9 reader dispatches on.
			fr, err := format.NewFrameReader(bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			for {
				frame, trailer, err := fr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if trailer != nil {
					break
				}
				h, _, err := format.ParseHeader(frame.Container)
				if err != nil {
					t.Fatalf("segment %d container: %v", frame.Index, err)
				}
				if h.Codec != eng.Codec() {
					t.Fatalf("segment %d carries codec %v, want %v", frame.Index, h.Codec, eng.Codec())
				}
			}

			// Smash one data record in each parity group (7 segments at
			// K=4 → groups of 4 and 3): within M=2 reach, so repair must
			// recover everything.
			recs := streamRecords(t, stream)
			var dataRecs []streamRec
			for _, rec := range recs {
				if !rec.parity {
					dataRecs = append(dataRecs, rec)
				}
			}
			if len(dataRecs) != 7 {
				t.Fatalf("data records = %d, want 7", len(dataRecs))
			}
			damaged := smashRec(stream, dataRecs[1])
			damaged = smashRec(damaged, dataRecs[5])

			r, err := NewReaderOptions(bytes.NewReader(damaged), Params{HostWorkers: 4},
				ReaderOptions{Repair: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("repair read: %v", err)
			}
			if len(r.CorruptSegments()) != 0 {
				t.Fatalf("parity-reachable damage recorded as lost: %v", r.CorruptSegments())
			}
			if len(r.RepairedSegments()) != 2 {
				t.Fatalf("repaired %d segments, want 2", len(r.RepairedSegments()))
			}
			if !bytes.Equal(got, input) {
				t.Fatalf("repaired round trip mismatch: %d bytes in, %d out", len(input), len(got))
			}
		})
	}
}

// TestDifferentialCodecsAgreeOnPlaintext cross-checks the codecs against
// each other: whatever one compressor wrote, the shared Decompress must
// recover the exact bytes every other codec also recovered.
func TestDifferentialCodecsAgreeOnPlaintext(t *testing.T) {
	input := datasets.Dictionary(24<<10, 55)
	var decoded [][]byte
	for _, c := range labelledCodecs {
		container, _, err := Compress(input, c.name, Params{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := Decompress(container, Params{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		decoded = append(decoded, got)
	}
	for i := 1; i < len(decoded); i++ {
		if !bytes.Equal(decoded[0], decoded[i]) {
			t.Fatalf("codec %d decoded different plaintext than codec 0", i)
		}
	}
}
