package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"culzss/internal/codec"
	"culzss/internal/format"
)

// maxSegmentFrameOverhead bounds the framing a segment record adds on
// top of its container: marker byte, three uvarints (index, rawLen,
// container length — all well under 2^28 here), and the frame CRC.
const maxSegmentFrameOverhead = 1 + 3*5 + 4

// TestAutoStoresIncompressibleStream is the raw-store acceptance test:
// an all-random stream framed under the adaptive selector must come out
// smaller than the same stream forced through V1 (whose bit-packed
// literals expand random bytes by ~12.5%), decode byte-identically, and
// never expand any single segment by more than the raw container header
// plus frame overhead.
func TestAutoStoresIncompressibleStream(t *testing.T) {
	const segSize = 64 << 10
	n := 4 << 20
	if testing.Short() {
		n = 1 << 20
	}
	input := make([]byte, n)
	rand.New(rand.NewSource(9001)).Read(input)

	frame := func(name string, onSeg func(SegmentReport)) []byte {
		var buf bytes.Buffer
		w := NewWriterOptions(&buf, Params{HostWorkers: 4},
			StreamOptions{SegmentSize: segSize, Codec: name, OnSegment: onSeg})
		if _, err := w.Write(input); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
		return buf.Bytes()
	}

	var reports []SegmentReport
	auto := frame(codec.Auto, func(sr SegmentReport) { reports = append(reports, sr) })
	v1 := frame("v1", nil)

	if len(auto) >= len(v1) {
		t.Fatalf("adaptive stream (%d bytes) not smaller than forced V1 (%d bytes) on random input",
			len(auto), len(v1))
	}
	if len(reports) != n/segSize {
		t.Fatalf("OnSegment saw %d segments, want %d", len(reports), n/segSize)
	}
	for _, sr := range reports {
		// The selector must fall back to raw store on incompressible
		// segments and pay at most the container+frame header for it.
		if sr.Codec != format.CodecStoreRaw {
			t.Fatalf("segment %d: selector chose %v for random bytes, want raw store", sr.Index, sr.Codec)
		}
		if bound := sr.RawLen + codec.RawOverhead + maxSegmentFrameOverhead; sr.FrameLen > bound {
			t.Fatalf("segment %d: frame is %d bytes for %d raw, exceeds expansion bound %d",
				sr.Index, sr.FrameLen, sr.RawLen, bound)
		}
	}

	r, err := NewReader(bytes.NewReader(auto), Params{HostWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, input) {
		t.Fatalf("adaptive stream round trip mismatch: %d bytes in, %d out", len(input), len(got))
	}
}

// TestDecompressUnknownCodec pins the decode-dispatch contract for the
// codec byte's reserved headroom: a container whose codec value parses
// (structurally valid, [1, CodecMax]) but has no registered engine must
// fail with the typed unknown-codec error, not a parse error.
func TestDecompressUnknownCodec(t *testing.T) {
	payload := []byte("reserved-codec payload")
	unknown := format.Codec(9) // headroom: valid range, never assigned
	if !unknown.Valid() || unknown <= format.CodecStoreRaw {
		t.Fatalf("codec %d is not a valid-but-unassigned headroom value", unknown)
	}
	h := &format.Header{
		Codec:       unknown,
		OriginalLen: len(payload),
		Checksum:    format.Checksum32(payload),
	}
	container := append(format.AppendHeader(nil, h), payload...)
	if _, _, err := format.ParseHeader(container); err != nil {
		t.Fatalf("headroom codec byte failed structural parse: %v", err)
	}

	_, err := Decompress(container, Params{})
	if err == nil {
		t.Fatal("decode dispatched a codec no engine claims")
	}
	if !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("error does not unwrap to ErrUnknownCodec: %v", err)
	}
	var uce *codec.UnknownCodecError
	if !errors.As(err, &uce) {
		t.Fatalf("error is not a typed *codec.UnknownCodecError: %v", err)
	}
	if uce.Codec != unknown {
		t.Fatalf("UnknownCodecError carries codec %v, want %v", uce.Codec, unknown)
	}

	// The streaming reader surfaces the same typed error for a framed
	// segment carrying the unregistered codec byte.
	var stream []byte
	stream = format.AppendStreamHeader(stream, 1<<10)
	stream = format.AppendSegmentFrame(stream, 0, len(payload), container)
	stream = format.AppendStreamTrailer(stream, &format.StreamTrailer{
		Segments: 1, TotalLen: len(payload), Checksum: format.Checksum32(payload),
	})
	r, err := NewReader(bytes.NewReader(stream), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(r); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("streaming decode of unregistered codec: %v", err)
	}
}
