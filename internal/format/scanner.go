// Record-boundary scanning for the write side of the frame layer.
//
// A crash-safe stream writer (internal/durable) needs to know, as bytes
// flow to disk, where the complete-record boundaries are: a commit
// (fsync) is only meaningful at a boundary, and recovery truncates back
// to one. BoundaryScanner is an incremental structural parser fed the
// exact bytes of a framed stream in production order; it tracks the
// offset just past the last complete record. It decodes the stream header
// and each record head with the FrameReader's decoders, under the same
// frame bound, and skips every container and shard unread: it verifies no
// checksums (the writer produced the bytes itself — the scanner guards
// against framing bugs, not bit rot; CRCs are re-verified on the read
// side by FrameReader and durable.ScanTail).
package format

import (
	"errors"
	"fmt"
)

// BoundaryScanner consumes a framed stream incrementally (via Write) and
// reports record boundaries. It is an io.Writer so it can sit on a write
// path as a tee; errors are sticky and mark a structurally invalid stream
// — on the write side that is a framing bug, not recoverable damage.
type BoundaryScanner struct {
	// maxRaw and maxComp are frameBound of the header's segment size;
	// both are 0 until the stream header has been read.
	maxRaw, maxComp int

	headBuf [maxParityHeader]byte // the head read so far: headN bytes
	headN   int
	marker  byte  // the marker of the record whose body is being skipped
	skip    int64 // body bytes left to skip

	off           int64 // total bytes consumed
	good          int64 // offset just past the last complete record (header included)
	records       int   // complete segment frames seen
	parityRecords int   // complete parity frames seen
	trailer       bool
	err           error
}

// NewBoundaryScanner returns a scanner expecting a stream from its first
// byte (the stream header). Records are bounded by frameBound of the
// segment size the header declares.
func NewBoundaryScanner() *BoundaryScanner {
	return &BoundaryScanner{}
}

// ResumeBoundaryScanner returns a scanner positioned at a record boundary
// of an existing stream whose header declares segmentSize: off is the
// absolute offset of the boundary and records the number of segment
// frames before it. It expects a record marker next — the shape a
// resumed durable writer appends into.
func ResumeBoundaryScanner(off int64, records, segmentSize int) *BoundaryScanner {
	s := &BoundaryScanner{off: off, good: off, records: records}
	s.maxRaw, s.maxComp = frameBound(segmentSize)
	return s
}

// GoodOffset reports the offset just past the last complete record. The
// stream header counts as a record: after it, GoodOffset is the header
// length.
func (s *BoundaryScanner) GoodOffset() int64 { return s.good }

// Offset reports the total bytes consumed, including any partial record.
func (s *BoundaryScanner) Offset() int64 { return s.off }

// Records reports the number of complete segment frames seen.
func (s *BoundaryScanner) Records() int { return s.records }

// ParityRecords reports the number of complete parity frames seen.
func (s *BoundaryScanner) ParityRecords() int { return s.parityRecords }

// Err returns the sticky structural error, if any.
func (s *BoundaryScanner) Err() error { return s.err }

// Write consumes the next bytes of the stream. On a structural violation
// it returns the sticky error and the count of bytes of p before the
// offending head, or before the bytes that follow the trailer.
func (s *BoundaryScanner) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := len(p)
	for len(p) > 0 {
		var k int
		switch {
		case s.skip > 0:
			k = int(min(int64(len(p)), s.skip))
			s.skip -= int64(k)
			s.off += int64(k)
			if s.skip == 0 {
				s.complete()
			}
		case s.trailer:
			s.err = fmt.Errorf("%w: %d byte(s) after the stream trailer", ErrCorrupt, len(p))
		default:
			k, s.err = s.readHead(p)
		}
		if s.err != nil {
			return n - len(p), s.err
		}
		p = p[k:]
	}
	return n, nil
}

// readHead appends the front of p to the head bytes read so far and
// decodes them: the stream header first, then one record head at a time.
// It returns how many bytes of p it consumed, all of them while the head
// is incomplete. The longest head, a parity frame's, fits the buffer, so
// the decode always completes or fails before the buffer fills.
func (s *BoundaryScanner) readHead(p []byte) (int, error) {
	h0 := s.headN
	s.headN += copy(s.headBuf[h0:], p)
	header := s.maxComp == 0
	n, err := s.decode(s.headBuf[:s.headN])
	switch {
	case errors.Is(err, errNeedMore):
		s.off += int64(s.headN - h0)
		return s.headN - h0, nil
	case err != nil:
		return 0, fmt.Errorf("%w at offset %d", err, s.off-int64(h0))
	}
	s.headN = 0
	s.off += int64(n - h0)
	switch {
	case header:
		s.good = s.off
	case s.skip == 0:
		s.complete()
	}
	return n - h0, nil
}

// decode decodes the head at the front of b, the stream header while the
// frame bound is unset and else a record head, and returns its length. A
// record must also keep the order a writer emits: segments by index,
// parity right after its group, and a trailer that counts every segment.
func (s *BoundaryScanner) decode(b []byte) (int, error) {
	if s.maxComp == 0 {
		segmentSize, n, err := decodeStreamHeader(b)
		if err == nil {
			s.maxRaw, s.maxComp = frameBound(segmentSize)
		}
		return n, err
	}
	var h head
	if err := h.decode(b, s.maxRaw, s.maxComp, false); err != nil {
		return 0, err
	}
	switch h.marker {
	case frameMarkerSegment:
		if h.f[0] != s.records {
			return 0, fmt.Errorf("%w: emitting segment %d, want %d", ErrFrameOrder, h.f[0], s.records)
		}
	case frameMarkerTrailer:
		if h.f[0] != s.records {
			return 0, fmt.Errorf("%w: trailer counts %d segments, stream carried %d", ErrCorrupt, h.f[0], s.records)
		}
	case frameMarkerParity:
		if first, k := h.f[0], h.f[1]; first+k != s.records {
			return 0, fmt.Errorf("%w: emitting parity for [%d,%d), stream carries %d segments",
				ErrFrameOrder, first, first+k, s.records)
		}
	}
	s.marker, s.skip = h.marker, int64(h.body)
	return h.n, nil
}

// complete closes the record whose head and body have been consumed.
func (s *BoundaryScanner) complete() {
	switch s.marker {
	case frameMarkerSegment:
		s.records++
	case frameMarkerParity:
		s.parityRecords++
	case frameMarkerTrailer:
		s.trailer = true
	}
	s.good = s.off
}
