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
	"bufio"
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

	// crc is the record's verified CRC of Container, set by the salvage
	// parser so the repair layer rebuilds the record's bytes without
	// computing it again.
	crc uint32
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
	return appendSegmentRecord(dst, index, rawLen, Checksum32(container), container)
}

// appendSegmentRecord appends one segment frame whose container CRC is
// already known.
func appendSegmentRecord(dst []byte, index, rawLen int, crc uint32, container []byte) []byte {
	dst = append(dst, frameMarkerSegment)
	dst = binary.AppendUvarint(dst, uint64(index))
	dst = binary.AppendUvarint(dst, uint64(rawLen))
	dst = binary.AppendUvarint(dst, uint64(len(container)))
	dst = binary.BigEndian.AppendUint32(dst, crc)
	return append(dst, container...)
}

// AppendStreamTrailer appends the trailer record to dst.
func AppendStreamTrailer(dst []byte, t *StreamTrailer) []byte {
	dst = append(dst, frameMarkerTrailer)
	dst = binary.AppendUvarint(dst, uint64(t.Segments))
	dst = binary.AppendUvarint(dst, uint64(t.TotalLen))
	return binary.BigEndian.AppendUint32(dst, t.Checksum)
}

// WriteStreamHeader writes the stream header to w and reports the bytes
// written.
func WriteStreamHeader(w io.Writer, segmentSize int) (int, error) {
	return w.Write(AppendStreamHeader(make([]byte, 0, 16), segmentSize))
}

// WriteSegmentFrame writes one segment frame to w and reports the bytes
// written.
func WriteSegmentFrame(w io.Writer, index, rawLen int, container []byte) (int, error) {
	return w.Write(AppendSegmentFrame(make([]byte, 0, 24+len(container)), index, rawLen, container))
}

// WriteStreamTrailer writes the trailer to w and reports the bytes
// written.
func WriteStreamTrailer(w io.Writer, t *StreamTrailer) (int, error) {
	return w.Write(AppendStreamTrailer(make([]byte, 0, 16), t))
}

// frameByteReader is the reader the frame decoder needs: stream reads for
// container payloads plus single-byte reads for markers and varints.
type frameByteReader interface {
	io.Reader
	io.ByteReader
}

// FrameReader decodes a framed stream incrementally: one Next call per
// record, holding at most one segment's container in memory.
type FrameReader struct {
	r frameByteReader
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
	// when the original position could not be established.
	RepairSink func(index int, off int64, encoded []byte)
	// Lease, when non-nil, supplies the buffer behind each returned
	// SegmentFrame.Container (both normal and salvage modes): it is
	// called with the needed length and may return a recycled buffer of
	// at least that capacity; a nil or short return falls back to the
	// allocator. Ownership of the Container passes to the Next caller as
	// usual — the streaming layer points Lease at a recycle pool and
	// returns each container once its segment is decoded, removing the
	// per-frame throwaway allocation. Set it before the first Next.
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

	// Salvage mode (see salvage.go): reads go through a sliding window so
	// the decoder can back up and rescan after a damaged record.
	salvage     bool
	src         io.Reader
	win         []byte // the window's backing array
	buf         []byte // unconsumed window, a slice of win
	off         int64  // absolute stream offset of buf[0]
	eof         bool
	readErr     error
	corrupted   bool
	pendFrame   *SegmentFrame
	pendTrailer *StreamTrailer
	pendParity  *ParityFrame
	// recOff is the absolute stream offset at which the most recently
	// returned salvage record started.
	recOff int64

	// rep holds the repair-mode state (see repair.go); nil outside repair
	// mode.
	rep *repairState
}

// NewFrameReader parses the stream header from r and returns a reader for
// the frames that follow. Inputs not starting with StreamMagic fail with
// ErrBadStreamMagic.
func NewFrameReader(r io.Reader) (*FrameReader, error) {
	br, ok := r.(frameByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrTruncated
		}
		return nil, err
	}
	if string(magic[:]) != StreamMagic {
		return nil, ErrBadStreamMagic
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, eofToTruncated(err)
	}
	if version != StreamVersion {
		return nil, fmt.Errorf("%w: stream version %d", ErrBadVersion, version)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, eofToTruncated(err)
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: nonzero stream flags %#x", ErrCorrupt, flags)
	}
	segSize, err := readVarint(br)
	if err != nil {
		return nil, err
	}
	fr := &FrameReader{r: br, SegmentSize: segSize, parityGroupFirst: -1}
	fr.maxRaw, fr.maxComp = frameBound(segSize)
	return fr, nil
}

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
	next := fr.next
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
		return nil, nil, err
	}
	if trailer != nil {
		fr.trailer = trailer
		fr.Obs.Counter("culzss_frames_read_total", obs.L("kind", "trailer")).Inc()
	} else {
		fr.Obs.Counter("culzss_frames_read_total", obs.L("kind", "segment")).Inc()
	}
	return frame, trailer, nil
}

func (fr *FrameReader) next() (*SegmentFrame, *StreamTrailer, error) {
	for {
		frame, trailer, err := fr.nextRecord()
		if err != nil || frame != nil || trailer != nil {
			return frame, trailer, err
		}
		// A parity frame was decoded and absorbed; keep reading.
	}
}

func (fr *FrameReader) nextRecord() (*SegmentFrame, *StreamTrailer, error) {
	marker, err := fr.r.ReadByte()
	if err != nil {
		// A stream must end with a trailer; EOF here is truncation.
		return nil, nil, eofToTruncated(err)
	}
	switch marker {
	case frameMarkerSegment:
		index, err := readVarint(fr.r)
		if err != nil {
			return nil, nil, err
		}
		if index != fr.nextIndex {
			return nil, nil, fmt.Errorf("%w: got segment %d, want %d", ErrFrameOrder, index, fr.nextIndex)
		}
		rawLen, err := readVarint(fr.r)
		if err != nil {
			return nil, nil, err
		}
		compLen, err := readVarint(fr.r)
		if err != nil {
			return nil, nil, err
		}
		if rawLen > fr.maxRaw || compLen > fr.maxComp {
			return nil, nil, fr.errSegmentBound(rawLen, compLen)
		}
		var crc [4]byte
		if _, err := io.ReadFull(fr.r, crc[:]); err != nil {
			return nil, nil, eofToTruncated(err)
		}
		container := fr.lease(compLen)
		if _, err := io.ReadFull(fr.r, container); err != nil {
			return nil, nil, eofToTruncated(err)
		}
		if Checksum32(container) != binary.BigEndian.Uint32(crc[:]) {
			return nil, nil, fmt.Errorf("%w: segment %d", ErrFrameChecksum, index)
		}
		fr.nextIndex++
		fr.rawTotal += rawLen
		return &SegmentFrame{Index: index, RawLen: rawLen, Container: container}, nil, nil
	case frameMarkerTrailer:
		segments, err := readVarint(fr.r)
		if err != nil {
			return nil, nil, err
		}
		totalLen, err := readVarint(fr.r)
		if err != nil {
			return nil, nil, err
		}
		var crc [4]byte
		if _, err := io.ReadFull(fr.r, crc[:]); err != nil {
			return nil, nil, eofToTruncated(err)
		}
		t := &StreamTrailer{Segments: segments, TotalLen: totalLen, Checksum: binary.BigEndian.Uint32(crc[:])}
		if t.Segments != fr.nextIndex {
			return nil, nil, fmt.Errorf("%w: trailer counts %d segments, stream carried %d", ErrCorrupt, t.Segments, fr.nextIndex)
		}
		if t.TotalLen != fr.rawTotal {
			return nil, nil, fmt.Errorf("%w: trailer totalLen %d, segment rawLens sum to %d", ErrCorrupt, t.TotalLen, fr.rawTotal)
		}
		return nil, t, nil
	case frameMarkerParity:
		pf, err := fr.readParity()
		if err != nil {
			return nil, nil, err
		}
		if err := fr.acceptParity(pf); err != nil {
			return nil, nil, err
		}
		return nil, nil, nil // absorbed; caller keeps reading
	default:
		return nil, nil, fmt.Errorf("%w: unknown frame marker %#x", ErrCorrupt, marker)
	}
}

// readParity decodes one parity frame body (the marker byte has already
// been consumed), verifying geometry bounds and the shard CRC.
func (fr *FrameReader) readParity() (*ParityFrame, error) {
	fields := make([]int, 5) // firstIndex, k, m, j, shardLen
	for i := range fields {
		v, err := readVarint(fr.r)
		if err != nil {
			return nil, err
		}
		fields[i] = v
	}
	pf := &ParityFrame{FirstIndex: fields[0], K: fields[1], M: fields[2], J: fields[3], ShardLen: fields[4]}
	if err := validateParityGeometry(pf.FirstIndex, pf.K, pf.M, pf.J, pf.ShardLen, fr.maxComp+maxSegmentHeader); err != nil {
		return nil, err
	}
	pf.FrameLens = make([]int, pf.K)
	for i := range pf.FrameLens {
		v, err := readVarint(fr.r)
		if err != nil {
			return nil, err
		}
		if v < 1 || v > pf.ShardLen {
			return nil, fmt.Errorf("%w: frame length %d vs shard length %d", ErrParityGeometry, v, pf.ShardLen)
		}
		pf.FrameLens[i] = v
	}
	var crc [4]byte
	if _, err := io.ReadFull(fr.r, crc[:]); err != nil {
		return nil, eofToTruncated(err)
	}
	pf.Shard = make([]byte, pf.ShardLen)
	if _, err := io.ReadFull(fr.r, pf.Shard); err != nil {
		return nil, eofToTruncated(err)
	}
	if Checksum32(pf.Shard) != binary.BigEndian.Uint32(crc[:]) {
		return nil, fmt.Errorf("%w: parity shard %d of group at %d", ErrFrameChecksum, pf.J, pf.FirstIndex)
	}
	return pf, nil
}

// acceptParity applies ordering checks and bookkeeping to an intact
// parity frame in fail-fast (normal) mode.
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
	fr.noteParity(pf)
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

// errSegmentBound reports a segment record whose lengths exceed the
// frame bound.
func (fr *FrameReader) errSegmentBound(rawLen, compLen int) error {
	return fmt.Errorf("%w: segment lengths raw=%d comp=%d exceed the frame bound (raw %d, comp %d)",
		ErrCorrupt, rawLen, compLen, fr.maxRaw, fr.maxComp)
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

// readVarint decodes one bounded unsigned varint from r.
func readVarint(r io.ByteReader) (int, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, eofToTruncated(err)
	}
	if v > 1<<40 {
		return 0, fmt.Errorf("%w: implausible varint %d", ErrCorrupt, v)
	}
	return int(v), nil
}

// eofToTruncated maps mid-record EOFs onto ErrTruncated: a framed stream
// only legally ends immediately after its trailer.
func eofToTruncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}
