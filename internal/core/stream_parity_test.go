package core

import (
	"bytes"
	"io"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/format"
)

// --- self-healing streams: core-level parity wiring ---------------------

const parSeg = 8 << 10

func parityInput() []byte {
	return datasets.CFiles(9*parSeg-parSeg/2, 77) // 9 segments, short last
}

// writeParityStream frames input with the given parity geometry and
// returns the stream bytes plus the writer's stats.
func writeParityStream(t *testing.T, input []byte, k, m int) ([]byte, WriterStats) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{},
		StreamOptions{Codec: "v2", SegmentSize: parSeg, Parity: ParityConfig{K: k, M: m}})
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w.Stats()
}

// streamRec is one record's extent within a framed stream.
type streamRec struct {
	start, end int
	parity     bool
}

// streamRecords maps a stream's record boundaries using the write-side
// BoundaryScanner (header and trailer excluded).
func streamRecords(t testing.TB, stream []byte) []streamRec {
	t.Helper()
	s := format.NewBoundaryScanner()
	var recs []streamRec
	prevGood, prevSeg, prevPar := 0, 0, 0
	for i := range stream {
		if _, err := s.Write(stream[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if good := int(s.GoodOffset()); good != prevGood {
			switch {
			case s.Records() != prevSeg:
				recs = append(recs, streamRec{prevGood, good, false})
			case s.ParityRecords() != prevPar:
				recs = append(recs, streamRec{prevGood, good, true})
			}
			prevGood, prevSeg, prevPar = good, s.Records(), s.ParityRecords()
		}
	}
	return recs
}

// smashRec flips interior bytes of one record in a copy of the stream.
func smashRec(stream []byte, r streamRec) []byte {
	out := append([]byte(nil), stream...)
	for i := r.start + 3; i < r.end-1; i++ {
		out[i] ^= 0x5a
	}
	return out
}

// readRepair decodes stream under salvage+repair and returns the
// plaintext plus the reader's damage/heal records.
func readRepair(t *testing.T, stream []byte) ([]byte, *Reader) {
	t.Helper()
	r, err := NewReaderOptions(bytes.NewReader(stream), Params{}, ReaderOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return got, r
}

func TestStreamParityRoundTripClean(t *testing.T) {
	input := parityInput()
	stream, st := writeParityStream(t, input, 4, 2)
	// 9 segments at K=4 → groups of 4, 4, 1; M=2 parity frames each.
	if st.ParityFrames != 6 {
		t.Fatalf("ParityFrames = %d, want 6", st.ParityFrames)
	}

	// The normal (fail-fast) reader absorbs parity frames transparently.
	r, err := NewReader(bytes.NewReader(stream), Params{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, input) {
		t.Fatal("normal reader round trip mismatch on parity stream")
	}

	// So do plain salvage and salvage+repair; the trailer checks stay
	// enforced (a clean stream must still verify end to end).
	for _, opts := range []ReaderOptions{{Salvage: true}, {Repair: true}} {
		r, err := NewReaderOptions(bytes.NewReader(stream), Params{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, input) {
			t.Fatalf("opts %+v: round trip mismatch", opts)
		}
		if len(r.CorruptSegments()) != 0 || len(r.RepairedSegments()) != 0 {
			t.Fatalf("opts %+v: clean stream recorded damage", opts)
		}
	}
}

func TestStreamParityZeroConfigBytesUnchanged(t *testing.T) {
	// The zero ParityConfig must leave the stream byte-identical to a
	// writer that never heard of parity.
	input := datasets.Dictionary(3*parSeg, 5)
	frame := func(o StreamOptions) []byte {
		var buf bytes.Buffer
		w := NewWriterOptions(&buf, Params{}, o)
		if _, err := w.Write(input); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.Stats().ParityFrames != 0 {
			t.Fatal("parity frames emitted without ParityConfig")
		}
		return buf.Bytes()
	}
	plain := frame(StreamOptions{Codec: "v2", SegmentSize: parSeg})
	zero := frame(StreamOptions{Codec: "v2", SegmentSize: parSeg, Parity: ParityConfig{}})
	if !bytes.Equal(plain, zero) {
		t.Fatal("zero ParityConfig changed the stream bytes")
	}
}

func TestStreamParityConfigValidation(t *testing.T) {
	for _, c := range []ParityConfig{
		{K: -1, M: 1},
		{K: format.MaxParityK + 1, M: 1},
		{K: 4, M: 0},
		{K: 0, M: 3},
		{K: 4, M: format.MaxParityM + 1},
	} {
		var buf bytes.Buffer
		w := NewWriterOptions(&buf, Params{},
			StreamOptions{Codec: "v2", SegmentSize: parSeg, Parity: c})
		if _, err := w.Write([]byte("x")); err == nil {
			t.Fatalf("config %+v accepted", c)
		}
	}
}

func TestStreamRepairSingleRecordMatrix(t *testing.T) {
	input := parityInput()
	stream, _ := writeParityStream(t, input, 4, 2)
	recs := streamRecords(t, stream)
	if len(recs) != 9+6 {
		t.Fatalf("record count = %d, want 15", len(recs))
	}
	for i, rec := range recs {
		var repairs int
		r, err := NewReaderOptions(bytes.NewReader(smashRec(stream, rec)), Params{}, ReaderOptions{
			Repair:   true,
			OnRepair: func(*format.RepairedSegmentError) { repairs++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, input) {
			t.Fatalf("record %d (parity=%v): repaired plaintext differs", i, rec.parity)
		}
		if len(r.CorruptSegments()) != 0 {
			t.Fatalf("record %d: lost data despite parity: %v", i, r.CorruptSegments()[0])
		}
		if len(r.RepairedSegments()) == 0 || repairs != len(r.RepairedSegments()) {
			t.Fatalf("record %d: repairs not reported (records %d, callbacks %d)",
				i, len(r.RepairedSegments()), repairs)
		}
	}
}

func TestStreamRepairBeyondCapacity(t *testing.T) {
	// Three erasures in a K=4/M=2 group exceed the parity's reach: the
	// survivors still decode, the losses degrade to recorded corruption.
	input := parityInput()
	stream, _ := writeParityStream(t, input, 4, 2)
	recs := streamRecords(t, stream)
	damaged := stream
	for _, i := range []int{0, 1, 2} { // first three data frames of group 0
		damaged = smashRec(damaged, recs[i])
	}
	got, r := readRepair(t, damaged)
	if len(r.CorruptSegments()) == 0 {
		t.Fatal("three losses in an M=2 group reported as fully healed")
	}
	want := input[3*parSeg:] // segments 0-2 lost, 3..8 survive
	if !bytes.Equal(got, want) {
		t.Fatalf("survivor plaintext mismatch: got %d bytes, want %d", len(got), len(want))
	}
}

func TestStreamRepairXORGeometry(t *testing.T) {
	// M=1 exercises the XOR fast path end to end.
	input := parityInput()
	stream, st := writeParityStream(t, input, 3, 1)
	if st.ParityFrames != 3 {
		t.Fatalf("ParityFrames = %d, want 3", st.ParityFrames)
	}
	recs := streamRecords(t, stream)
	got, r := readRepair(t, smashRec(stream, recs[1]))
	if !bytes.Equal(got, input) || len(r.CorruptSegments()) != 0 {
		t.Fatalf("XOR repair failed: corrupt=%d", len(r.CorruptSegments()))
	}
}

func TestStreamParityResumeByteEquivalent(t *testing.T) {
	// A writer resumed mid-group (ResumeState.GroupFrames) must finish
	// the stream byte-identical to an uninterrupted run.
	input := parityInput()
	full, _ := writeParityStream(t, input, 4, 2)
	recs := streamRecords(t, full)

	// Cut just past segment frame 2: group 0 is open with frames 0-2 on
	// disk and no parity yet.
	cut := recs[2].end
	fr, err := format.NewFrameReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	var group [][]byte
	for i := 0; i < 3; i++ {
		frame, _, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		group = append(group, format.AppendSegmentFrame(nil, frame.Index, frame.RawLen, frame.Container))
	}

	var buf bytes.Buffer
	buf.Write(full[:cut])
	w := NewWriterOptions(&buf, Params{}, StreamOptions{
		Codec:       "v2",
		SegmentSize: parSeg,
		Parity:      ParityConfig{K: 4, M: 2},
		Resume: &ResumeState{
			NextIndex:   3,
			Total:       3 * parSeg,
			CRC:         format.Checksum32Update(0, input[:3*parSeg]),
			GroupFrames: group,
		},
	})
	if _, err := w.Write(input[3*parSeg:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), full) {
		t.Fatal("resumed parity stream differs from the uninterrupted run")
	}
}
