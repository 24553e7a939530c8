package format

import (
	"bytes"
	"errors"
	"testing"
)

// buildScanStream assembles a header + n segment frames (+ optional
// trailer) and returns the bytes plus the record-boundary offsets in
// order (offset just past the header, past each frame, past the trailer).
func buildScanStream(t *testing.T, n int, withTrailer bool) ([]byte, []int64) {
	t.Helper()
	buf := AppendStreamHeader(nil, 4096)
	bounds := []int64{int64(len(buf))}
	total := 0
	for i := 0; i < n; i++ {
		container := bytes.Repeat([]byte{byte('a' + i)}, 50+i*13)
		buf = AppendSegmentFrame(buf, i, 100+i, container)
		total += 100 + i
		bounds = append(bounds, int64(len(buf)))
	}
	if withTrailer {
		buf = AppendStreamTrailer(buf, &StreamTrailer{Segments: n, TotalLen: total, Checksum: 0xdeadbeef})
		bounds = append(bounds, int64(len(buf)))
	}
	return buf, bounds
}

func TestBoundaryScannerFullStream(t *testing.T) {
	data, bounds := buildScanStream(t, 3, true)
	s := NewBoundaryScanner()
	if n, err := s.Write(data); n != len(data) || err != nil {
		t.Fatalf("Write = (%d, %v), want (%d, nil)", n, err, len(data))
	}
	if s.GoodOffset() != int64(len(data)) {
		t.Fatalf("GoodOffset = %d, want %d", s.GoodOffset(), len(data))
	}
	if s.Records() != 3 {
		t.Fatalf("Records = %d, want 3", s.Records())
	}
	if !s.TrailerDone() {
		t.Fatal("TrailerDone = false after a complete stream")
	}
	_ = bounds
}

func TestBoundaryScannerByteAtATime(t *testing.T) {
	// Feeding one byte per Write call must land on exactly the same
	// boundaries as one big call: GoodOffset only ever equals a real
	// record boundary.
	data, bounds := buildScanStream(t, 3, true)
	isBound := map[int64]bool{0: true}
	for _, b := range bounds {
		isBound[b] = true
	}
	s := NewBoundaryScanner()
	for i := range data {
		if _, err := s.Write(data[i : i+1]); err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if !isBound[s.GoodOffset()] {
			t.Fatalf("after byte %d GoodOffset = %d, not a record boundary", i, s.GoodOffset())
		}
		if s.Offset() != int64(i+1) {
			t.Fatalf("after byte %d Offset = %d", i, s.Offset())
		}
	}
	if !s.TrailerDone() || s.Records() != 3 {
		t.Fatalf("end state: trailer=%v records=%d", s.TrailerDone(), s.Records())
	}
}

func TestBoundaryScannerTruncationPoints(t *testing.T) {
	// For every possible truncation length, GoodOffset must be the
	// greatest record boundary ≤ the cut.
	data, bounds := buildScanStream(t, 3, true)
	for cut := 0; cut <= len(data); cut++ {
		want := int64(0)
		for _, b := range bounds {
			if b <= int64(cut) {
				want = b
			}
		}
		s := NewBoundaryScanner()
		if _, err := s.Write(data[:cut]); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if s.GoodOffset() != want {
			t.Fatalf("cut %d: GoodOffset = %d, want %d", cut, s.GoodOffset(), want)
		}
	}
}

func TestBoundaryScannerResume(t *testing.T) {
	data, bounds := buildScanStream(t, 4, true)
	// Resume at the boundary after frame 1 (bounds[0] is the header).
	off, records := bounds[2], 2
	s := ResumeBoundaryScanner(off, records, 4096)
	if _, err := s.Write(data[off:]); err != nil {
		t.Fatal(err)
	}
	if s.GoodOffset() != int64(len(data)) || s.Records() != 4 || !s.TrailerDone() {
		t.Fatalf("resumed scan: good=%d records=%d trailer=%v",
			s.GoodOffset(), s.Records(), s.TrailerDone())
	}
}

func TestBoundaryScannerRejectsStructuralViolations(t *testing.T) {
	valid, bounds := buildScanStream(t, 2, true)

	t.Run("bad magic", func(t *testing.T) {
		s := NewBoundaryScanner()
		if _, err := s.Write([]byte("XLZS")); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("unknown marker", func(t *testing.T) {
		s := NewBoundaryScanner()
		bad := append(append([]byte{}, valid[:bounds[0]]...), 0x7f)
		if _, err := s.Write(bad); err == nil {
			t.Fatal("unknown frame marker accepted")
		}
		// The error is sticky.
		if _, err := s.Write([]byte{0}); err == nil {
			t.Fatal("scanner not sticky after a structural error")
		}
	})
	t.Run("out-of-order index", func(t *testing.T) {
		s := NewBoundaryScanner()
		bad := AppendSegmentFrame(append([]byte{}, valid[:bounds[0]]...), 5, 10, []byte("xxxxxxxxxx"))
		if _, err := s.Write(bad); err == nil {
			t.Fatal("out-of-order segment index accepted")
		}
	})
	t.Run("byte after trailer", func(t *testing.T) {
		s := NewBoundaryScanner()
		if _, err := s.Write(valid); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write([]byte{0}); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
	t.Run("trailer segment mismatch", func(t *testing.T) {
		buf := AppendStreamTrailer(AppendStreamHeader(nil, 4096), &StreamTrailer{Segments: 3, TotalLen: 0})
		s := NewBoundaryScanner()
		if _, err := s.Write(buf); err == nil {
			t.Fatal("trailer with wrong segment count accepted")
		}
	})
}

// TestBoundaryScannerParityStream: parity frames advance the good
// offset without counting as segment records, byte-at-a-time included.
func TestBoundaryScannerParityStream(t *testing.T) {
	segs := buildParitySegs(5) // k=2, m=2: short final group of 1
	stream, recOffs, trailerOff := buildParityStreamOffs(t, segs, 2, 2)

	s := NewBoundaryScanner()
	for _, b := range stream { // byte at a time: exercises every state edge
		if _, err := s.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.TrailerDone() || s.GoodOffset() != int64(len(stream)) {
		t.Fatalf("trailer=%v good=%d want %d", s.TrailerDone(), s.GoodOffset(), len(stream))
	}
	if s.Records() != 5 {
		t.Fatalf("records = %d, want 5", s.Records())
	}
	if s.ParityRecords() != 6 { // 3 groups x m=2
		t.Fatalf("parity records = %d, want 6", s.ParityRecords())
	}

	// Good offset lands exactly on record boundaries mid-stream.
	s = NewBoundaryScanner()
	if _, err := s.Write(stream[:recOffs[3]+1]); err != nil { // 1 byte into record 3
		t.Fatal(err)
	}
	if s.GoodOffset() != int64(recOffs[3]) {
		t.Fatalf("good = %d, want boundary %d", s.GoodOffset(), recOffs[3])
	}
	_ = trailerOff

	// Parity emitted at the wrong position is a framing bug.
	frames := make([][]byte, 2)
	for i := range frames {
		frames[i] = AppendSegmentFrame(nil, i, len(segs[i][0]), segs[i][1])
	}
	pfs, err := BuildParityFrames(0, frames, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := AppendStreamHeader(nil, 1<<16)
	bad = append(bad, frames[0]...) // only 1 of the group's 2 frames written
	bad = AppendParityFrame(bad, pfs[0])
	s = NewBoundaryScanner()
	if _, err := s.Write(bad); !errors.Is(err, ErrFrameOrder) {
		t.Fatalf("misplaced parity: %v, want ErrFrameOrder", err)
	}
}

// TrailerDone reports whether the stream trailer has been fully consumed.
func (s *BoundaryScanner) TrailerDone() bool { return s.trailer }
