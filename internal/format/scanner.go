// Record-boundary scanning for the write side of the frame layer.
//
// A crash-safe stream writer (internal/durable) needs to know, as bytes
// flow to disk, where the complete-record boundaries are: a commit
// (fsync) is only meaningful at a boundary, and recovery truncates back
// to one. BoundaryScanner is an incremental structural parser fed the
// exact bytes of a framed stream in production order; it tracks the
// offset just past the last complete record without buffering payloads or
// verifying checksums (the writer produced the bytes itself — the scanner
// guards against framing bugs, not bit rot; CRCs are re-verified on the
// read side by FrameReader and durable.ScanTail).
package format

import (
	"fmt"
)

// scanState enumerates the scanner's position inside the stream grammar.
type scanState int

const (
	scanHeaderFixed  scanState = iota // magic, version, flags (6 bytes)
	scanHeaderSize                    // segmentSize varint
	scanMarker                        // record marker byte
	scanSegIndex                      // segment frame: index varint
	scanSegRawLen                     // segment frame: rawLen varint
	scanSegCompLen                    // segment frame: compLen varint
	scanSegCRC                        // segment frame: 4 CRC bytes
	scanSegPayload                    // segment frame: compLen container bytes
	scanTrailerSegs                   // trailer: segments varint
	scanTrailerTotal                  // trailer: totalLen varint
	scanTrailerCRC                    // trailer: 4 CRC bytes
	scanParFirst                      // parity frame: firstIndex varint
	scanParK                          // parity frame: k varint
	scanParM                          // parity frame: m varint
	scanParJ                          // parity frame: j varint
	scanParShardLen                   // parity frame: shardLen varint
	scanParFrameLens                  // parity frame: k frameLens varints
	scanParCRC                        // parity frame: 4 CRC bytes
	scanParPayload                    // parity frame: shardLen shard bytes
	scanDone                          // trailer complete; no byte may follow
)

// BoundaryScanner consumes a framed stream incrementally (via Write) and
// reports record boundaries. It is an io.Writer so it can sit on a write
// path as a tee; errors are sticky and mark a structurally invalid stream
// — on the write side that is a framing bug, not recoverable damage.
type BoundaryScanner struct {
	state   scanState
	headerN int   // bytes of the fixed header consumed
	need    int   // remaining bytes of the current fixed-size field
	skip    int64 // remaining payload bytes of the current segment frame
	compLen int64 // the current frame's container length
	uv      uint64
	uvBits  uint

	// In-flight parity frame fields.
	parFirst, parK, parM, parJ, parShardLen int
	parLensLeft                             int

	off           int64 // total bytes consumed
	good          int64 // offset just past the last complete record (header included)
	records       int   // complete segment frames seen
	parityRecords int   // complete parity frames seen
	trailer       bool
	err           error
}

// NewBoundaryScanner returns a scanner expecting a stream from its first
// byte (the stream header).
func NewBoundaryScanner() *BoundaryScanner {
	return &BoundaryScanner{}
}

// ResumeBoundaryScanner returns a scanner positioned at a record boundary
// of an existing stream: off is the absolute offset of the boundary and
// records the number of segment frames before it. It expects a record
// marker next — the shape a resumed durable writer appends into.
func ResumeBoundaryScanner(off int64, records int) *BoundaryScanner {
	return &BoundaryScanner{state: scanMarker, off: off, good: off, records: records}
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

// TrailerDone reports whether the stream trailer has been fully consumed.
func (s *BoundaryScanner) TrailerDone() bool { return s.trailer }

// Err returns the sticky structural error, if any.
func (s *BoundaryScanner) Err() error { return s.err }

// Write consumes the next bytes of the stream. On a structural violation
// it consumes up to the offending byte and returns the sticky error.
func (s *BoundaryScanner) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := len(p)
	for len(p) > 0 && s.err == nil {
		if s.state == scanSegPayload || s.state == scanParPayload {
			k := int64(len(p))
			if k > s.skip {
				k = s.skip
			}
			p = p[k:]
			s.off += k
			s.skip -= k
			if s.skip == 0 {
				if s.state == scanParPayload {
					s.completeParity()
				} else {
					s.completeFrame()
				}
			}
			continue
		}
		b := p[0]
		p = p[1:]
		s.off++
		s.step(b)
	}
	if s.err != nil {
		return n - len(p), s.err
	}
	return n, nil
}

// completeFrame closes out one segment frame.
func (s *BoundaryScanner) completeFrame() {
	s.records++
	s.good = s.off
	s.state = scanMarker
}

// completeParity closes out one parity frame: it advances the good
// offset (a commit is meaningful after it) without counting as a
// segment record.
func (s *BoundaryScanner) completeParity() {
	s.parityRecords++
	s.good = s.off
	s.state = scanMarker
}

func (s *BoundaryScanner) fail(err error) {
	s.err = err
}

// step advances the state machine by one non-payload byte.
func (s *BoundaryScanner) step(b byte) {
	switch s.state {
	case scanHeaderFixed:
		idx := s.headerN
		s.headerN++
		switch {
		case idx < len(StreamMagic) && b != StreamMagic[idx]:
			s.fail(fmt.Errorf("%w: header byte %d is %#x", ErrBadStreamMagic, idx, b))
		case idx == 4 && b != StreamVersion:
			s.fail(fmt.Errorf("%w: stream version %d", ErrBadVersion, b))
		case idx == 5 && b != 0:
			s.fail(fmt.Errorf("%w: nonzero stream flags %#x", ErrCorrupt, b))
		}
		if s.headerN == 6 {
			s.state = scanHeaderSize
		}
	case scanHeaderSize:
		if _, done := s.varint(b); done {
			s.good = s.off
			s.state = scanMarker
		}
	case scanMarker:
		switch b {
		case frameMarkerSegment:
			s.state = scanSegIndex
		case frameMarkerTrailer:
			s.state = scanTrailerSegs
		case frameMarkerParity:
			s.state = scanParFirst
		default:
			s.fail(fmt.Errorf("%w: unknown frame marker %#x at offset %d", ErrCorrupt, b, s.off-1))
		}
	case scanSegIndex:
		if v, done := s.varint(b); done {
			if int(v) != s.records {
				s.fail(fmt.Errorf("%w: emitting segment %d, want %d", ErrFrameOrder, v, s.records))
				return
			}
			s.state = scanSegRawLen
		}
	case scanSegRawLen:
		if v, done := s.varint(b); done {
			if v > MaxSegmentLen {
				s.fail(fmt.Errorf("%w: implausible segment rawLen %d", ErrCorrupt, v))
				return
			}
			s.state = scanSegCompLen
		}
	case scanSegCompLen:
		if v, done := s.varint(b); done {
			if v > MaxSegmentLen {
				s.fail(fmt.Errorf("%w: implausible segment compLen %d", ErrCorrupt, v))
				return
			}
			s.compLen = int64(v)
			s.need = 4
			s.state = scanSegCRC
		}
	case scanSegCRC:
		s.need--
		if s.need == 0 {
			if s.compLen == 0 {
				s.completeFrame()
			} else {
				s.skip = s.compLen
				s.state = scanSegPayload
			}
		}
	case scanTrailerSegs:
		if v, done := s.varint(b); done {
			if int(v) != s.records {
				s.fail(fmt.Errorf("%w: trailer counts %d segments, stream carried %d", ErrCorrupt, v, s.records))
				return
			}
			s.state = scanTrailerTotal
		}
	case scanTrailerTotal:
		if _, done := s.varint(b); done {
			s.need = 4
			s.state = scanTrailerCRC
		}
	case scanTrailerCRC:
		s.need--
		if s.need == 0 {
			s.trailer = true
			s.good = s.off
			s.state = scanDone
		}
	case scanParFirst:
		if v, done := s.varint(b); done {
			s.parFirst = int(v)
			s.state = scanParK
		}
	case scanParK:
		if v, done := s.varint(b); done {
			s.parK = int(v)
			s.state = scanParM
		}
	case scanParM:
		if v, done := s.varint(b); done {
			s.parM = int(v)
			s.state = scanParJ
		}
	case scanParJ:
		if v, done := s.varint(b); done {
			s.parJ = int(v)
			s.state = scanParShardLen
		}
	case scanParShardLen:
		if v, done := s.varint(b); done {
			s.parShardLen = int(v)
			if err := validateParityGeometry(s.parFirst, s.parK, s.parM, s.parJ, s.parShardLen, MaxSegmentLen+maxSegmentHeader); err != nil {
				s.fail(err)
				return
			}
			// The writer emits parity immediately after its group's last
			// data frame.
			if s.parFirst+s.parK != s.records {
				s.fail(fmt.Errorf("%w: emitting parity for [%d,%d), stream carries %d segments",
					ErrFrameOrder, s.parFirst, s.parFirst+s.parK, s.records))
				return
			}
			s.parLensLeft = s.parK
			s.state = scanParFrameLens
		}
	case scanParFrameLens:
		if v, done := s.varint(b); done {
			if v < 1 || int(v) > s.parShardLen {
				s.fail(fmt.Errorf("%w: frame length %d vs shard length %d", ErrParityGeometry, v, s.parShardLen))
				return
			}
			s.parLensLeft--
			if s.parLensLeft == 0 {
				s.need = 4
				s.state = scanParCRC
			}
		}
	case scanParCRC:
		s.need--
		if s.need == 0 {
			s.skip = int64(s.parShardLen)
			s.state = scanParPayload
		}
	case scanDone:
		s.fail(fmt.Errorf("%w: %d byte(s) after the stream trailer", ErrCorrupt, 1))
	}
}

// varint feeds one byte to the in-progress uvarint; done reports the
// value is complete (and resets the accumulator).
func (s *BoundaryScanner) varint(b byte) (uint64, bool) {
	s.uv |= uint64(b&0x7f) << s.uvBits
	if b < 0x80 {
		v := s.uv
		s.uv, s.uvBits = 0, 0
		if v > 1<<40 {
			s.fail(fmt.Errorf("%w: implausible varint %d", ErrCorrupt, v))
			return 0, false
		}
		return v, true
	}
	s.uvBits += 7
	if s.uvBits > 63 {
		s.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
		return 0, false
	}
	return 0, false
}
