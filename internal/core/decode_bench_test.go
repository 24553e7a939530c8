package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"culzss/internal/codec"
	"culzss/internal/datasets"
)

// Stream decode benchmarks in two reference shapes, for exact B/op and
// allocs/op from the testing package's memory statistics:
//
//	go test ./internal/core -run='^$' -bench='Decode(Archive|Hop)Shape' -benchtime=20x -count=5
//
// With -benchtime=1x each count is one decode, so the spread across
// counts is the spread of single decodes.

// archiveShape is ten 1 MiB segments, two of each paper dataset in the
// order cfiles, kernel, dictionary, demap, highcomp, written with codec
// auto.
func archiveShape(tb testing.TB) (input, stream []byte) {
	archiveOnce.Do(func() { archiveInput, archiveStream = newArchiveShape(tb) })
	return archiveInput, archiveStream
}

var (
	archiveOnce                 sync.Once
	archiveInput, archiveStream []byte
)

func newArchiveShape(tb testing.TB) (input, stream []byte) {
	const seg = DefaultSegmentSize
	order := []string{"cfiles", "kernel", "dictionary", "demap", "highcomp"}
	srcs := make([][]byte, len(order))
	for i, key := range order {
		g, _ := datasets.ByKey(key)
		srcs[i] = g.Gen(2*seg, 1)
	}
	for c := 0; c < 2; c++ {
		for _, src := range srcs {
			input = append(input, src[c*seg:(c+1)*seg]...)
		}
	}
	return input, writeBenchStream(tb, input, StreamOptions{Codec: codec.Auto, SegmentSize: seg})
}

// hopBurst is the length of each burst of hopShape's wire damage.
const hopBurst = 97

// hopShape is 128 segments of 64 KiB with 4+2 parity, written with codec
// auto: in every four, two DE-map segments, one highly compressible and
// one random. Half the parity groups, chosen by seed, carry one burst
// inside one of their data frames, which repair rebuilds. It returns the
// damaged stream and the number of bursts.
func hopShape(tb testing.TB) (input []byte, damaged hopWire) {
	hopOnce.Do(func() { hopInput, hopDamaged = newHopShape(tb) })
	return hopInput, hopDamaged
}

var (
	hopOnce    sync.Once
	hopInput   []byte
	hopDamaged hopWire
)

func newHopShape(tb testing.TB) (input []byte, damaged hopWire) {
	const seg = 64 << 10
	demap, highcomp := datasets.DEMap(64*seg, 1), datasets.HighlyCompressible(32*seg, 1)
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < 32; b++ {
		input = append(input, demap[2*b*seg:(2*b+1)*seg]...)
		input = append(input, highcomp[b*seg:(b+1)*seg]...)
		input = append(input, demap[(2*b+1)*seg:(2*b+2)*seg]...)
		random := make([]byte, seg)
		rng.Read(random)
		input = append(input, random...)
	}
	const k = 4
	stream := writeBenchStream(tb, input, StreamOptions{Codec: codec.Auto, SegmentSize: seg, Parity: ParityConfig{K: k, M: 2}})
	var data []streamRec
	for _, r := range streamRecords(tb, stream) {
		if !r.parity {
			data = append(data, r)
		}
	}
	groups := len(data) / k
	for _, g := range rng.Perm(groups)[:groups/2] {
		r := data[g*k+rng.Intn(k)]
		off := r.start + rng.Intn(r.end-r.start-hopBurst+1)
		for i := off; i < off+hopBurst; i++ {
			stream[i] ^= byte(1 + rng.Intn(255))
		}
		damaged.bursts++
	}
	damaged.stream = stream
	return input, damaged
}

type hopWire struct {
	stream []byte
	bursts int
}

func writeBenchStream(tb testing.TB, input []byte, o StreamOptions) []byte {
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 2}, o)
	if _, err := w.Write(input); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// benchDecode decodes stream b.N times with HostWorkers 2, checking every
// byte against want, and returns the last Reader.
func benchDecode(b *testing.B, stream, want []byte, o ReaderOptions) *Reader {
	b.SetBytes(int64(len(want)))
	b.ReportAllocs()
	copyBuf := make([]byte, 64<<10)
	var r *Reader
	v := new(verifyWriter)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = NewReaderOptions(bytes.NewReader(stream), Params{HostWorkers: 2}, o); err != nil {
			b.Fatal(err)
		}
		*v = verifyWriter{want: want}
		if _, err := io.CopyBuffer(v, r, copyBuf); err != nil {
			b.Fatal(err)
		}
		if v.err != nil || len(v.want) != 0 {
			b.Fatalf("decode differs from the input: %v, %d bytes short", v.err, len(v.want))
		}
	}
	return r
}

// verifyWriter checks that what is written to it is want, in order.
type verifyWriter struct {
	want []byte
	err  error
}

func (v *verifyWriter) Write(p []byte) (int, error) {
	if v.err == nil && (len(p) > len(v.want) || !bytes.Equal(p, v.want[:len(p)])) {
		v.err = fmt.Errorf("wrong bytes with %d left", len(v.want))
	}
	v.want = v.want[min(len(p), len(v.want)):]
	return len(p), nil
}

func BenchmarkDecodeArchiveShape(b *testing.B) {
	input, stream := archiveShape(b)
	benchDecode(b, stream, input, ReaderOptions{})
}

func BenchmarkDecodeHopShape(b *testing.B) {
	input, wire := hopShape(b)
	r := benchDecode(b, wire.stream, input, ReaderOptions{Repair: true})
	repaired := 0
	for _, rse := range r.RepairedSegments() {
		repaired += len(rse.Frames)
	}
	if repaired != wire.bursts || len(r.CorruptSegments()) != 0 {
		b.Fatalf("%d bursts, %d frames repaired, %d regions skipped", wire.bursts, repaired, len(r.CorruptSegments()))
	}
}
