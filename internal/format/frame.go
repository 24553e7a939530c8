// Frame layer: a *framed stream* is a sequence of self-describing segment
// containers, the bounded-memory transport the paper's network-gateway
// scenario needs (§VII: "heavy traffic" cannot buffer whole files). One
// logical stream is cut into segments; each segment is compressed into an
// ordinary CLZ1 container and wrapped in a frame record, so a receiver can
// decode segment-at-a-time with O(SegmentSize) memory and detect
// truncation or corruption before handing bytes to a decompressor.
//
// Wire layout (all multi-byte integers are unsigned varints unless noted):
//
//	stream header
//	  magic        4 bytes  "CLZS"
//	  version      1 byte   frame format version (currently 1)
//	  flags        1 byte   reserved, must be zero
//	  segmentSize  varint   largest uncompressed segment; readers bound
//	                        every record's lengths by it (see frameBound)
//
//	segment frame, repeated once per segment
//	  marker       1 byte   0x01
//	  index        varint   0-based sequence number
//	  rawLen       varint   uncompressed length of this segment
//	  compLen      varint   length of the container that follows
//	  crc          4 bytes  CRC-32 (IEEE) of the container bytes, big endian
//	  container    compLen bytes  a standard CLZ1 container (any codec)
//
//	trailer
//	  marker       1 byte   0x00
//	  segments     varint   total number of segment frames
//	  totalLen     varint   total uncompressed stream length
//	  crc          4 bytes  CRC-32 (IEEE) of the whole uncompressed stream
//
// The per-frame CRC covers the *compressed* container, so a receiver
// rejects a damaged frame without paying for decompression; the trailer
// CRC covers the *uncompressed* stream, the end-to-end "data looks the
// same going in as coming out" guarantee (§III). The trailer marker reuses
// the frame-marker byte position, so a reader distinguishes "next segment"
// from "end of stream" with a single byte read.
package format

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"culzss/internal/obs"
)

// StreamMagic identifies a CULZSS framed stream. It deliberately shares
// the "CLZ" prefix with the container magic while staying distinguishable
// in the fourth byte.
const StreamMagic = "CLZS"

// StreamVersion is the current frame format version.
const StreamVersion = 1

// Frame markers (the first byte of every record after the stream header).
const (
	frameMarkerTrailer = 0x00
	frameMarkerSegment = 0x01
)

// MaxSegmentLen caps the per-segment lengths a reader will accept; frames
// claiming more are corrupt (and would otherwise let a hostile header
// drive a huge allocation).
const MaxSegmentLen = 1 << 30

// maxSegmentHeader is the longest segment-record header: marker, three
// varints and the CRC.
const maxSegmentHeader = 1 + 3*binary.MaxVarintLen64 + 4

// frameBound returns the largest rawLen and compLen a segment record may
// claim in a stream whose header declares segmentSize. rawLen never
// exceeds segmentSize: a Writer cuts no longer segment, and durable
// resume adopts the header's size. The container bound, 2·segmentSize +
// 4 KiB, is loose against the worst container any registered engine
// writes (about 1.13·n for the LZSS engines, 1.23·n for bzip2 at 4 KiB,
// n plus its header for raw). A parity shard is a zero-padded segment
// record, so it may exceed maxComp by one maxSegmentHeader. A segmentSize
// of 0 keeps the MaxSegmentLen cap, and neither bound ever exceeds it.
func frameBound(segmentSize int) (maxRaw, maxComp int) {
	if segmentSize <= 0 || segmentSize > MaxSegmentLen {
		return MaxSegmentLen, MaxSegmentLen
	}
	return segmentSize, min(2*segmentSize+4<<10, MaxSegmentLen)
}

// Frame-layer errors.
var (
	// ErrBadStreamMagic marks input that is not a framed stream.
	ErrBadStreamMagic = errors.New("format: bad stream magic (not a CULZSS framed stream)")
	// ErrFrameChecksum marks a segment frame whose container bytes fail
	// the per-frame CRC.
	ErrFrameChecksum = errors.New("format: frame checksum mismatch")
	// ErrFrameOrder marks out-of-sequence segment indices.
	ErrFrameOrder = errors.New("format: segment frames out of order")
)

// SegmentFrame is one decoded segment record.
type SegmentFrame struct {
	Index     int    // 0-based sequence number
	RawLen    int    // uncompressed length of the segment
	Container []byte // the CLZ1 container holding the compressed segment

	// rec is the frame's whole encoded record, ending with Container, when
	// the repair layer holds the frame: parity covers the record's exact
	// bytes. nil otherwise.
	rec []byte
}

// Buffer returns the buffer behind Container: Container itself, or the
// whole record a repair-mode reader copied it out with. A caller that
// recycles containers through FrameReader.Lease hands back Buffer once
// the container is consumed, so a recycled buffer keeps its full length.
func (f *SegmentFrame) Buffer() []byte {
	if f.rec != nil {
		return f.rec
	}
	return f.Container
}

// StreamTrailer is the end-of-stream record.
type StreamTrailer struct {
	Segments int    // number of segment frames in the stream
	TotalLen int    // total uncompressed length
	Checksum uint32 // CRC-32 (IEEE) of the whole uncompressed stream
}

// AppendStreamHeader appends the encoded stream header to dst.
func AppendStreamHeader(dst []byte, segmentSize int) []byte {
	dst = append(dst, StreamMagic...)
	dst = append(dst, StreamVersion, 0)
	return binary.AppendUvarint(dst, uint64(segmentSize))
}

// AppendSegmentFrame appends one segment frame (record plus container) to
// dst.
func AppendSegmentFrame(dst []byte, index, rawLen int, container []byte) []byte {
	dst = appendSegmentHead(dst, index, rawLen, len(container), Checksum32(container))
	return append(dst, container...)
}

// appendSegmentHead appends the head of a segment record, marker through
// CRC, in the canonical form a writer emits.
func appendSegmentHead(dst []byte, index, rawLen, compLen int, crc uint32) []byte {
	dst = append(dst, frameMarkerSegment)
	dst = binary.AppendUvarint(dst, uint64(index))
	dst = binary.AppendUvarint(dst, uint64(rawLen))
	dst = binary.AppendUvarint(dst, uint64(compLen))
	return binary.BigEndian.AppendUint32(dst, crc)
}

// AppendStreamTrailer appends the trailer record to dst.
func AppendStreamTrailer(dst []byte, t *StreamTrailer) []byte {
	dst = append(dst, frameMarkerTrailer)
	dst = binary.AppendUvarint(dst, uint64(t.Segments))
	dst = binary.AppendUvarint(dst, uint64(t.TotalLen))
	return binary.BigEndian.AppendUint32(dst, t.Checksum)
}

// errNeedMore is a decoder's signal that its bytes ended before the
// header or record head did.
var errNeedMore = errors.New("format: record extends past available data")

// errResync is the rejection of every resync candidate: a record parse
// at window position > 0 during the rescan after damage. The scan
// discards it, and candidates are common (every zero byte of a payload
// is a trailer candidate), so it is one unformatted value that costs no
// allocation.
var errResync = errors.New("format: no record at resync candidate")

// reject returns a failed parse's error: errResync at a resync candidate
// (quiet), else the formatted cause. cause runs only when not quiet.
func reject(quiet bool, cause func() error) error {
	if quiet {
		return errResync
	}
	return cause()
}

// uvarint decodes the varint at the front of b, which may not exceed
// 2^40: its value and encoded length, or errNeedMore when b ends first.
func uvarint(b []byte, quiet bool) (int, int, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, 0, errNeedMore
	case n < 0:
		return 0, 0, reject(quiet, func() error { return fmt.Errorf("%w: varint overflow", ErrCorrupt) })
	case v > 1<<40:
		return 0, 0, reject(quiet, func() error { return fmt.Errorf("%w: implausible varint %d", ErrCorrupt, v) })
	}
	return int(v), n, nil
}

// decodeStreamHeader decodes the stream header at the front of b: the
// segment size it declares and its encoded length, or errNeedMore when b
// ends first.
func decodeStreamHeader(b []byte) (segmentSize, n int, err error) {
	const fixed = len(StreamMagic) + 2 // magic, version, flags
	switch {
	case len(b) < len(StreamMagic):
		return 0, 0, errNeedMore
	case string(b[:len(StreamMagic)]) != StreamMagic:
		return 0, 0, ErrBadStreamMagic
	case len(b) < fixed:
		return 0, 0, errNeedMore
	case b[len(StreamMagic)] != StreamVersion:
		return 0, 0, fmt.Errorf("%w: stream version %d", ErrBadVersion, b[len(StreamMagic)])
	case b[len(StreamMagic)+1] != 0:
		return 0, 0, fmt.Errorf("%w: nonzero stream flags %#x", ErrCorrupt, b[len(StreamMagic)+1])
	}
	segmentSize, n, err = uvarint(b[fixed:], false)
	return segmentSize, fixed + n, err
}

// headFields is the number of varints before any parity frame lengths in
// the head of each record kind, indexed by marker.
var headFields = [...]int{frameMarkerTrailer: 2, frameMarkerSegment: 3, frameMarkerParity: 5}

// head is one decoded record head: the marker through the CRC. The
// record's body, body bytes long, follows the head's n bytes.
type head struct {
	marker byte
	// f holds the head's varints in wire order. Segment: index, rawLen,
	// compLen. Trailer: segments, totalLen. Parity: firstIndex, k, m, j,
	// shardLen.
	f    [5]int
	lens [MaxParityK]int // a parity frame's k frame lengths
	crc  uint32          // the body's CRC; the trailer's stream CRC
	n    int             // encoded head length
	body int             // compLen or shardLen; 0 for the trailer
}

// decode decodes the record head at the front of b. It checks the
// marker, caps every varint at 2^40, holds a segment's rawLen and
// compLen to the frame bound (maxRaw, maxComp) and a parity frame to
// parityGeometryOK with a shard of at most maxComp+maxSegmentHeader
// bytes and frame lengths within the shard, and reads the CRC. It
// returns errNeedMore when b ends before the head does, and at a resync
// candidate (quiet) rejects with errResync, formatting nothing.
func (h *head) decode(b []byte, maxRaw, maxComp int, quiet bool) error {
	if len(b) == 0 {
		return errNeedMore
	}
	marker := b[0]
	if int(marker) >= len(headFields) {
		return reject(quiet, func() error { return fmt.Errorf("%w: unknown frame marker %#x", ErrCorrupt, marker) })
	}
	h.marker = marker
	p := 1
	for i := 0; i < headFields[marker]; i++ {
		v, n, err := uvarint(b[p:], quiet)
		if err != nil {
			return err
		}
		h.f[i] = v
		p += n
	}
	h.body = 0
	switch marker {
	case frameMarkerSegment:
		rawLen, compLen := h.f[1], h.f[2]
		if rawLen > maxRaw || compLen > maxComp {
			return reject(quiet, func() error {
				return fmt.Errorf("%w: segment lengths raw=%d comp=%d exceed the frame bound (raw %d, comp %d)",
					ErrCorrupt, rawLen, compLen, maxRaw, maxComp)
			})
		}
		h.body = compLen
	case frameMarkerParity:
		first, k, m, j, shardLen := h.f[0], h.f[1], h.f[2], h.f[3], h.f[4]
		maxShard := maxComp + maxSegmentHeader
		if !parityGeometryOK(first, k, m, j, shardLen, maxShard) {
			return reject(quiet, func() error { return validateParityGeometry(first, k, m, j, shardLen, maxShard) })
		}
		for i := 0; i < k; i++ {
			v, n, err := uvarint(b[p:], quiet)
			if err != nil {
				return err
			}
			if v < 1 || v > shardLen {
				return reject(quiet, func() error {
					return fmt.Errorf("%w: frame length %d vs shard length %d", ErrParityGeometry, v, shardLen)
				})
			}
			h.lens[i] = v
			p += n
		}
		h.body = shardLen
	}
	if len(b) < p+4 {
		return errNeedMore
	}
	h.crc = binary.BigEndian.Uint32(b[p:])
	h.n = p + 4
	return nil
}

// FrameReader decodes a framed stream incrementally, one Next call per
// record. Both modes read the source through one sliding window
// (salvage.go): a record is parsed, bounded by the frame bound and
// CRC-checked inside the window before anything is allocated for it, and
// the window grows only as input arrives, to at most windowBound of the
// container bound. What Next returns never shares the window's memory.
// The window reads ahead of the records Next returns; Offset reports how
// far the records themselves reach.
type FrameReader struct {
	// SegmentSize is the stream header's segment size, the largest
	// rawLen a record may claim (0: no stated size).
	SegmentSize int
	// Obs, when non-nil, counts decoded records
	// (culzss_frames_read_total{kind=...}) and — in salvage mode —
	// resynchronisations and discarded bytes. Set it before the first
	// Next call; nil is inert.
	Obs *obs.Registry

	// OnParity, when non-nil, observes every intact parity frame as it is
	// decoded (both modes). Parity frames are otherwise transparent: Next
	// never returns them.
	OnParity func(*ParityFrame)
	// RepairSink, when non-nil in repair mode, receives the exact encoded
	// bytes of every frame the repair layer reconstructs, together with
	// the absolute stream offset the frame originally occupied — the hook
	// durable recovery uses to patch damage in place. The offset is -1
	// when the original position could not be established. A rebuilt
	// segment frame's encoded bytes are the record behind the SegmentFrame
	// Next returns (and whose Buffer the caller may recycle): they are
	// valid only during the call, must be copied to be kept, and must not
	// be modified.
	RepairSink func(index int, off int64, encoded []byte)
	// Lease, when non-nil, supplies the buffer behind each returned
	// SegmentFrame (both modes): it is called once the record has
	// verified, with the container's length, or in repair mode with the
	// whole record's, and may return a recycled buffer of at least that
	// capacity; a nil or short return falls back to the allocator.
	// Ownership passes to the Next caller as usual — the streaming layer
	// points Lease at a recycle pool and returns each frame's Buffer once
	// its segment is decoded, removing the per-frame throwaway
	// allocation. Set it before the first Next.
	Lease func(n int) []byte
	// ParityK and ParityM report the stream's parity geometry, learned
	// from the first parity frame (0,0 until one is seen / for
	// parity-less streams).
	ParityK, ParityM int
	// ParityFrames counts intact parity frames decoded so far.
	ParityFrames int

	nextIndex int
	rawTotal  int
	trailer   *StreamTrailer
	err       error

	// maxRaw and maxComp are frameBound(SegmentSize), checked at every
	// record header before anything is allocated or read ahead for it.
	maxRaw, maxComp int

	// Parity j-sequencing state (normal mode): first index of the parity
	// group currently being read and the next expected shard number.
	parityGroupFirst int
	parityNextJ      int

	// The window (salvage.go) over src. Salvage mode also backs up in it
	// to rescan after a damaged record.
	salvage   bool
	src       io.Reader
	win       []byte // the window's backing array
	buf       []byte // unconsumed window, a slice of win
	off       int64  // absolute stream offset of buf[0]
	eof       bool
	readErr   error
	corrupted bool
	// pend is the record found behind a reported damaged region, which
	// the next call delivers (n == 0: none).
	pend record
	// recOff is the absolute stream offset at which the most recently
	// returned salvage record started.
	recOff int64

	// rep holds the repair-mode state (see repair.go); nil outside repair
	// mode.
	rep *repairState
}

// NewFrameReader parses the stream header from r and returns a reader for
// the frames that follow. Inputs not starting with StreamMagic fail with
// ErrBadStreamMagic. Next fails on the first record that does not parse
// and verify where the previous one ended, and that failure is sticky.
func NewFrameReader(r io.Reader) (*FrameReader, error) {
	return newFrameReader(r, false)
}

// newFrameReader parses the stream header through the window, for either
// mode. It starts from the cached window array, and keeps it only when
// it is within this stream's windowBound.
func newFrameReader(r io.Reader, salvage bool) (*FrameReader, error) {
	fr := &FrameReader{salvage: salvage, src: r, parityGroupFirst: -1}
	fr.win = takeWindow()
	segSize, n, err := decodeStreamHeader(fr.buf)
	for errors.Is(err, errNeedMore) && fr.ensure(len(fr.buf)+1) {
		segSize, n, err = decodeStreamHeader(fr.buf)
	}
	if errors.Is(err, errNeedMore) {
		return nil, fr.endErr()
	}
	if err != nil {
		return nil, err
	}
	fr.SegmentSize = segSize
	fr.maxRaw, fr.maxComp = frameBound(segSize)
	fr.consume(n)
	if cached := fr.win; cap(cached) > windowBound(fr.maxComp) {
		// An array from a stream of longer segments: move what the
		// header's fills read (at most a chunk past the header) to an
		// array this stream may hold, and hand the cached one back.
		fr.win = make([]byte, len(fr.buf)+readChunk)
		fr.buf = fr.win[:copy(fr.win, fr.buf)]
		putWindow(cached)
	}
	return fr, nil
}

// Offset returns the absolute stream offset just past the last record
// the reader consumed (the stream header, before the first Next). In
// normal mode that is the end of the last record Next accepted, parity
// frames included; in salvage mode it also covers a record held back
// behind a reported damaged region.
func (fr *FrameReader) Offset() int64 { return fr.off }

// Next decodes the next record. It returns (frame, nil, nil) for a segment
// frame, (nil, trailer, nil) at the end-of-stream trailer, and a non-nil
// error for truncated or corrupt input. After the trailer (or an error),
// further calls return io.EOF (or the sticky error).
// In salvage mode (NewFrameReaderSalvage) a returned *CorruptSegmentError
// is NOT sticky: it reports one damaged region, and the next call resumes
// with the first record that parsed cleanly after it.
func (fr *FrameReader) Next() (*SegmentFrame, *StreamTrailer, error) {
	if fr.err != nil {
		return nil, nil, fr.err
	}
	if fr.trailer != nil {
		return nil, nil, io.EOF
	}
	next := fr.nextStrict
	if fr.salvage {
		next = fr.nextSalvage
	}
	frame, trailer, err := next()
	if err != nil {
		var cse *CorruptSegmentError
		if errors.As(err, &cse) {
			fr.Obs.Counter("culzss_frames_salvage_resyncs_total").Inc()
			fr.Obs.Counter("culzss_frames_salvage_skipped_bytes_total").Add(cse.Skipped)
			return nil, nil, err // salvage: recoverable, not sticky
		}
		var rse *RepairedSegmentError
		if errors.As(err, &rse) {
			return nil, nil, err // repair notice: damage healed, not sticky
		}
		fr.err = err
		fr.release()
		return nil, nil, err
	}
	if trailer != nil {
		fr.trailer = trailer
		fr.release()
		fr.Obs.Counter("culzss_frames_read_total", obs.L("kind", "trailer")).Inc()
	} else {
		fr.Obs.Counter("culzss_frames_read_total", obs.L("kind", "segment")).Inc()
	}
	return frame, trailer, nil
}

// nextStrict is Next in normal mode: the record at the window's start
// must parse and verify, or its rejection (the source's read error or
// ErrTruncated when the input ends first) ends the stream. Parity frames
// must also sit at their group's boundary in shard order.
func (fr *FrameReader) nextStrict() (*SegmentFrame, *StreamTrailer, error) {
	for {
		rec, err := fr.tryRecord(0)
		switch {
		case errors.Is(err, errNeedMore):
			return nil, nil, fr.endErr()
		case err != nil:
			return nil, nil, err
		case rec.parity != nil:
			if err := fr.acceptParity(rec.parity); err != nil {
				return nil, nil, err
			}
			fr.consume(rec.n)
			fr.noteParity(rec.parity)
			continue
		}
		start := fr.off
		fr.consume(rec.n)
		rec, err = fr.acceptRecord(rec, start)
		return rec.frame, rec.trailer, err
	}
}

// acceptParity applies the normal-mode ordering checks to an intact
// parity frame and advances the shard sequence.
func (fr *FrameReader) acceptParity(pf *ParityFrame) error {
	// Parity for [firstIndex, firstIndex+k) legally appears only right
	// after that group's last data frame.
	if pf.FirstIndex+pf.K != fr.nextIndex {
		return fmt.Errorf("%w: parity group [%d,%d) closes at segment %d, reader is at %d",
			ErrFrameOrder, pf.FirstIndex, pf.FirstIndex+pf.K, pf.FirstIndex+pf.K, fr.nextIndex)
	}
	if pf.FirstIndex == fr.parityGroupFirst {
		if pf.J != fr.parityNextJ {
			return fmt.Errorf("%w: parity shard %d of group at %d, want %d",
				ErrFrameOrder, pf.J, pf.FirstIndex, fr.parityNextJ)
		}
	} else {
		if pf.J != 0 {
			return fmt.Errorf("%w: parity group at %d starts with shard %d", ErrFrameOrder, pf.FirstIndex, pf.J)
		}
		fr.parityGroupFirst = pf.FirstIndex
	}
	fr.parityNextJ = pf.J + 1
	return nil
}

// noteParity records an intact parity frame (both modes): geometry,
// counters, hook.
func (fr *FrameReader) noteParity(pf *ParityFrame) {
	if fr.ParityK == 0 {
		fr.ParityK, fr.ParityM = pf.K, pf.M
	}
	fr.ParityFrames++
	fr.Obs.Counter("culzss_frames_read_total", obs.L("kind", "parity")).Inc()
	if fr.OnParity != nil {
		fr.OnParity(pf)
	}
}

// lease returns a length-n container buffer from the Lease hook when it
// can satisfy the request, or the allocator.
func (fr *FrameReader) lease(n int) []byte {
	if fr.Lease != nil {
		if b := fr.Lease(n); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}
