// Record parsing and salvage. Both FrameReader modes parse records out of
// one sliding window over the source; salvage mode adds the recovery of
// every intact segment of a damaged framed stream instead of dying at the
// first bad byte. The window decodes each record head with head.decode
// (frame.go), the one head decoder the write-side BoundaryScanner and the
// repair layer's parseSegmentRecord also use, and adds the reader's
// ordering rules, the body and its CRC.
//
// Normal-mode FrameReader semantics are fail-fast: any CRC mismatch,
// out-of-order index, or mid-record truncation is sticky and the rest of
// the stream — often 99% intact — is lost. Salvage mode turns each
// damaged region into a structured *CorruptSegmentError and then
// *resynchronizes*: it scans forward for the next plausible frame marker,
// re-parses the candidate record, and only accepts it when the record is
// fully self-consistent — for segment frames that includes the per-frame
// CRC-32 over the container bytes, so a false resynchronization point is
// vanishingly unlikely; for the (unchecksummed) trailer a resync
// candidate is only accepted when it ends the stream exactly, which is
// the position a legal trailer must occupy.
//
// The window holds at most windowBound of the stream's container bound in
// either mode: one candidate record plus the scan's chunk before it.
// Determinism: salvage is a pure function of the input bytes — no
// randomness, no scheduling dependence — so a given damaged stream always
// yields the same recovered segments and the same error reports.
package format

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// maxIndexGap bounds how far ahead a recovered segment index may jump
// past the expected one before the record is considered garbage (a
// resynchronization guard; 2^20 lost segments in one region is beyond
// plausible damage).
const maxIndexGap = 1 << 20

// readChunk is the least input one fill of the window asks for, and how
// far the rescan runs before it drops the bytes it has passed.
const readChunk = 64 << 10

// maxParityHeader is the longest parity-record header: marker, five
// geometry varints, MaxParityK frame lengths and the CRC.
const maxParityHeader = 1 + (5+MaxParityK)*binary.MaxVarintLen64 + 4

// windowBound is the largest array the window of a stream with container
// bound maxComp ever needs. A parse at window position pos reads ahead to
// the end of one record, at most a parity frame's header and a shard of
// maxComp+maxSegmentHeader bytes; the rescan keeps pos within readChunk;
// and fill allocates less than one chunk past what the parse asked for.
func windowBound(maxComp int) int {
	return 2*readChunk + maxParityHeader + maxSegmentHeader + maxComp
}

// windowCache keeps the window array of the last ended stream for the
// next FrameReader: a reader takes it when it opens and hands its own
// back when Next reaches the trailer or a sticky error, so a stream's
// window is allocated once per process rather than once per stream. It
// holds one array, smaller than maxCachedWindow, and a put replaces it.
// It is a mutex, not a sync.Pool: a pool parks a released array in the
// releasing P's private slot, out of reach of a reader that opens on
// another P, whose decode then grew a fresh window from one chunk.
var windowCache struct {
	sync.Mutex
	win []byte
}

// maxCachedWindow is the least capacity windowCache leaves to the
// collector: the window of segments of about 8 MiB.
const maxCachedWindow = 16 << 20

// putWindow hands a window array to the cache.
func putWindow(win []byte) {
	if cap(win) > 0 && cap(win) < maxCachedWindow {
		windowCache.Lock()
		windowCache.win = win
		windowCache.Unlock()
	}
}

// takeWindow takes the cached array, or returns nil.
func takeWindow() []byte {
	windowCache.Lock()
	defer windowCache.Unlock()
	win := windowCache.win
	windowCache.win = nil
	return win
}

// release hands the window back to the cache once the stream has ended.
// Nothing Next returned shares it: containers and parity shards are
// copied out of the window.
func (fr *FrameReader) release() {
	putWindow(fr.win)
	fr.win, fr.buf = nil, nil
}

// endErr is why the input ended before a record did: the source's read
// error, or else ErrTruncated.
func (fr *FrameReader) endErr() error {
	if fr.readErr != nil {
		return fr.readErr
	}
	return ErrTruncated
}

// CorruptSegmentError reports one damaged region of a framed stream
// encountered in salvage mode. It is returned by FrameReader.Next (and
// surfaced by core.Reader) *between* intact segments: the error is not
// sticky, and the next call resumes with the first record that parsed
// cleanly after the damage.
type CorruptSegmentError struct {
	// Index is the expected index of the first segment lost or damaged in
	// this region.
	Index int
	// Offset is the absolute byte offset in the framed stream at which
	// the damaged region begins (0 = first byte of the stream magic).
	Offset int64
	// Skipped is how many bytes were discarded to resynchronize. 0 means
	// no bytes were damaged but one or more whole frames are missing (a
	// clean index gap).
	Skipped int64
	// Err is the parse or checksum failure that triggered salvage.
	Err error
}

// Error implements error.
func (e *CorruptSegmentError) Error() string {
	if e.Skipped == 0 {
		return fmt.Sprintf("format: segment %d missing at offset %d: %v", e.Index, e.Offset, e.Err)
	}
	return fmt.Sprintf("format: corrupt region at segment %d: skipped %d bytes at offset %d: %v",
		e.Index, e.Skipped, e.Offset, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *CorruptSegmentError) Unwrap() error { return e.Err }

// NewFrameReaderSalvage parses the stream header from r and returns a
// FrameReader in salvage mode. The header itself is not salvageable
// (nothing downstream can be trusted without it), so header errors match
// NewFrameReader's. After a successful open, Next never returns a sticky
// error for in-stream damage: it yields *CorruptSegmentError for each
// damaged region, keeps delivering the intact segments around it, and
// ends with either the trailer, io.EOF, or ErrTruncated.
func NewFrameReaderSalvage(r io.Reader) (*FrameReader, error) {
	return newFrameReader(r, true)
}

// Corrupted reports whether salvage has recovered past at least one
// damaged region so far.
func (fr *FrameReader) Corrupted() bool { return fr.corrupted }

// fill reads more input into the window for a parse that needs want
// live bytes, and reports whether any bytes were added. It reads into the
// spare capacity behind the live bytes, what the parse needs but at least
// a chunk. When less than a read chunk is left there, it first slides the
// live bytes to the front of the array. Only when even that leaves less
// than a chunk does it move them to a larger array, sized toward want but
// at most doubling, so the window grows no faster than input arrives
// whatever a record claims. The array never shrinks.
func (fr *FrameReader) fill(want int) bool {
	if fr.eof {
		return false
	}
	if cap(fr.buf)-len(fr.buf) < readChunk {
		if len(fr.buf)+readChunk > cap(fr.win) {
			fr.win = make([]byte, max(len(fr.buf)+readChunk, min(want, 2*cap(fr.win))))
		}
		fr.buf = fr.win[:copy(fr.win, fr.buf)]
	}
	n, err := fr.src.Read(fr.buf[len(fr.buf):min(cap(fr.buf), max(want, len(fr.buf)+readChunk))])
	fr.buf = fr.buf[:len(fr.buf)+n]
	if err != nil {
		fr.eof = true
		if err != io.EOF {
			fr.readErr = err
		}
	}
	return n > 0
}

// ensure grows the window to at least n bytes, reporting success.
func (fr *FrameReader) ensure(n int) bool {
	for len(fr.buf) < n {
		if !fr.fill(n) {
			return false
		}
	}
	return true
}

// consume discards the first n window bytes and advances the absolute
// stream offset.
func (fr *FrameReader) consume(n int) {
	fr.buf = fr.buf[n:]
	fr.off += int64(n)
}

// record is one record parsed from the window: exactly one of
// frame, trailer and parity is set, and n is its encoded length.
type record struct {
	frame   *SegmentFrame
	trailer *StreamTrailer
	parity  *ParityFrame
	n       int
}

// tryRecord attempts to parse one complete record at window position pos
// (the window is NOT consumed). It decodes the head, filling the window
// while the head runs past it, and then applies the reader's ordering
// rules, reads the body and checks its CRC. Failure is errNeedMore (the
// stream ended before the record was complete) or a rejection: the
// formatted cause at the expected boundary (pos 0), errResync for a
// resync candidate (pos > 0).
func (fr *FrameReader) tryRecord(pos int) (record, error) {
	var h head
	err := h.decode(fr.buf[pos:], fr.maxRaw, fr.maxComp, pos > 0)
	for errors.Is(err, errNeedMore) && fr.ensure(len(fr.buf)+1) {
		err = h.decode(fr.buf[pos:], fr.maxRaw, fr.maxComp, pos > 0)
	}
	if err != nil {
		return record{}, err
	}
	switch h.marker {
	case frameMarkerSegment:
		return fr.trySegment(pos, &h)
	case frameMarkerTrailer:
		return fr.tryTrailer(pos, &h)
	default:
		return fr.tryParity(pos, &h)
	}
}

// trySegment is tryRecord for a segment frame.
func (fr *FrameReader) trySegment(pos int, h *head) (record, error) {
	index, rawLen, compLen := h.f[0], h.f[1], h.body
	lo, hi := fr.nextIndex, fr.nextIndex+maxIndexGap
	switch rep := fr.rep; {
	case !fr.salvage:
		hi = lo // normal mode: the next index and no other
	case rep != nil && !rep.disabled:
		// Repair mode holds frames until their group closes, so the
		// strict cursor can have been dragged ahead by an imposter
		// (index-varint flip). Accept anything not yet delivered; the
		// group buffer sorts out who is real.
		lo = rep.deliverNext
		hi = max(hi, rep.maxSeen+1+maxIndexGap)
	}
	if index < lo || index > hi {
		return record{}, reject(pos > 0, func() error {
			return fmt.Errorf("%w: got segment %d, want %d", ErrFrameOrder, index, lo)
		})
	}
	end := pos + h.n + compLen
	if !fr.ensure(end) {
		return record{}, errNeedMore
	}
	container := fr.buf[pos+h.n : end]
	if Checksum32(container) != h.crc {
		return record{}, reject(pos > 0, func() error { return fmt.Errorf("%w: segment %d", ErrFrameChecksum, index) })
	}
	// Copy out: the window's array is reused as it slides, and by the
	// next stream once this one ends.
	c := fr.lease(compLen)
	copy(c, container)
	return record{frame: &SegmentFrame{Index: index, RawLen: rawLen, Container: c, crc: h.crc}, n: end - pos}, nil
}

// tryTrailer is tryRecord for the trailer.
func (fr *FrameReader) tryTrailer(pos int, h *head) (record, error) {
	segments, totalLen := h.f[0], h.f[1]
	switch {
	case pos == 0 && !fr.corrupted:
		// Clean path: enforce the same consistency checks as normal
		// mode, so salvage and normal decoding agree on pristine
		// streams.
		if segments != fr.nextIndex {
			return record{}, fmt.Errorf("%w: trailer counts %d segments, stream carried %d", ErrCorrupt, segments, fr.nextIndex)
		}
		if totalLen != fr.rawTotal {
			return record{}, fmt.Errorf("%w: trailer totalLen %d, segment rawLens sum to %d", ErrCorrupt, totalLen, fr.rawTotal)
		}
	case pos > 0:
		// Resynchronization candidate. The trailer record carries no
		// self-checksum, so a scan can hallucinate one out of payload
		// bytes; demand the one property a real trailer must have —
		// it ends the stream exactly.
		if fr.ensure(pos + h.n + 1) {
			return record{}, errResync
		}
	default:
		// pos == 0 after earlier salvage: the record boundary is
		// trusted, and the counts legitimately disagree with what we
		// recovered — deliver the trailer as the stream's own claim.
	}
	return record{trailer: &StreamTrailer{Segments: segments, TotalLen: totalLen, Checksum: h.crc}, n: h.n}, nil
}

// tryParity is tryRecord for a parity frame.
func (fr *FrameReader) tryParity(pos int, h *head) (record, error) {
	first, k, m, j, shardLen := h.f[0], h.f[1], h.f[2], h.f[3], h.body
	// Parity follows its group's data, so a real parity frame never
	// describes a group starting past the reader's position.
	bound := fr.nextIndex
	if rep := fr.rep; rep != nil && !rep.disabled && rep.maxSeen+1 > bound {
		bound = rep.maxSeen + 1
	}
	if first > bound || first+k > bound+maxIndexGap {
		return record{}, reject(pos > 0, func() error {
			return fmt.Errorf("%w: parity group at %d, reader at %d", ErrFrameOrder, first, bound)
		})
	}
	lens := h.lens[:k]
	if pos > 0 && slices.Max(lens) != shardLen {
		// A writer pads every shard to exactly its group's longest frame.
		return record{}, errResync
	}
	end := pos + h.n + shardLen
	if !fr.ensure(end) {
		return record{}, errNeedMore
	}
	shard := fr.buf[pos+h.n : end]
	if Checksum32(shard) != h.crc {
		return record{}, reject(pos > 0, func() error {
			return fmt.Errorf("%w: parity shard %d of group at %d", ErrFrameChecksum, j, first)
		})
	}
	pf := &ParityFrame{
		FirstIndex: first, K: k, M: m, J: j, ShardLen: shardLen,
		FrameLens: append([]int(nil), lens...),
		Shard:     append([]byte(nil), shard...),
	}
	return record{parity: pf, n: end - pos}, nil
}

// nextSalvage decodes the next record in salvage mode. Damaged regions
// come back as *CorruptSegmentError; the following call resumes at the
// resynchronized record. In repair mode (see repair.go) the record flow
// is routed through the group buffer instead.
func (fr *FrameReader) nextSalvage() (*SegmentFrame, *StreamTrailer, error) {
	if fr.rep != nil {
		return fr.repairNext()
	}
	for {
		rec, err := fr.nextSalvageRaw()
		if rec.parity == nil {
			return rec.frame, rec.trailer, err
		}
		// Parity frames are transparent outside repair mode, but a group
		// that closes past the reader's position reveals data frames that
		// were excised without any byte damage — report the loss the same
		// way a clean index gap at a segment frame would.
		if close := rec.parity.FirstIndex + rec.parity.K; close > fr.nextIndex {
			cse := &CorruptSegmentError{
				Index:  fr.nextIndex,
				Offset: fr.recOff,
				Err:    fmt.Errorf("%w: parity closes group at %d, reader is at %d", ErrFrameOrder, close, fr.nextIndex),
			}
			fr.corrupted = true
			fr.nextIndex = close
			return nil, nil, cse
		}
	}
}

// nextSalvageRaw decodes the next record in salvage mode, surfacing
// parity frames to the caller instead of absorbing them. It does not
// advance nextIndex for parity records — callers decide how a group
// close moves the expected index. fr.recOff holds the returned record's
// absolute start offset.
func (fr *FrameReader) nextSalvageRaw() (record, error) {
	// Deliver the record stashed behind a just-reported corruption.
	if rec := fr.pend; rec.n > 0 {
		fr.pend = record{}
		return rec, nil
	}

	startOff := fr.off
	rec, err := fr.tryRecord(0)
	if err == nil {
		fr.consume(rec.n)
		fr.recOff = startOff
		if rec.parity != nil {
			fr.noteParity(rec.parity)
			return rec, nil
		}
		return fr.acceptRecord(rec, startOff)
	}
	if errors.Is(err, errNeedMore) && len(fr.buf) == 0 {
		// Clean record boundary at end of data but no trailer was seen.
		return record{}, fr.endErr()
	}

	// Damage at the expected record position: rescan byte by byte for
	// the next record that parses and checksums. errNeedMore there means
	// the record claims more bytes than the input holds: truncation when
	// the scan reaches end of input, in-stream corruption when it finds a
	// later record.
	cause := err
	var dropped int64 // scanned bytes already discarded from the window
	for skip := 1; ; skip++ {
		if skip > readChunk {
			// The scan never looks back: drop what it has passed, so
			// the window stays bounded however long the damage runs.
			// One byte stays so the candidate remains at a resync
			// position (> 0).
			fr.consume(skip - 1)
			dropped += int64(skip - 1)
			skip = 1
		}
		if !fr.ensure(skip + 1) {
			// Scanned to end of data without resynchronizing: the whole
			// tail is damage.
			if fr.readErr != nil {
				return record{}, fr.readErr
			}
			if errors.Is(cause, errNeedMore) {
				cause = ErrTruncated
			}
			skipped := dropped + int64(len(fr.buf))
			fr.consume(len(fr.buf))
			fr.corrupted = true
			return record{}, &CorruptSegmentError{Index: fr.nextIndex, Offset: startOff, Skipped: skipped, Err: cause}
		}
		b := fr.buf[skip]
		if b != frameMarkerSegment && b != frameMarkerTrailer && b != frameMarkerParity {
			continue
		}
		rec, err := fr.tryRecord(skip)
		if err != nil {
			continue // not a real record; keep scanning
		}
		// Resynchronized. Report the damaged region first; stash the
		// recovered record for the next call.
		skipped := dropped + int64(skip)
		if errors.Is(cause, errNeedMore) {
			cause = fmt.Errorf("%w: record at offset %d runs past the next intact record at offset %d",
				ErrCorrupt, startOff, startOff+skipped)
		}
		fr.corrupted = true
		cse := &CorruptSegmentError{Index: fr.nextIndex, Offset: startOff, Skipped: skipped, Err: cause}
		fr.recOff = startOff + skipped
		fr.consume(skip + rec.n)
		switch {
		case rec.parity != nil:
			fr.noteParity(rec.parity)
		case rec.frame != nil:
			fr.nextIndex = rec.frame.Index + 1
			fr.rawTotal += rec.frame.RawLen
		}
		fr.pend = rec
		return record{}, cse
	}
}

// acceptRecord applies index bookkeeping to a record parsed at the
// expected boundary (both modes), turning clean index gaps in salvage
// mode (whole frames excised without byte damage) into
// CorruptSegmentError reports too.
func (fr *FrameReader) acceptRecord(rec record, startOff int64) (record, error) {
	frame := rec.frame
	if frame == nil {
		return rec, nil
	}
	if frame.Index != fr.nextIndex {
		cse := &CorruptSegmentError{
			Index:  fr.nextIndex,
			Offset: startOff,
			Err:    fmt.Errorf("%w: got segment %d, want %d", ErrFrameOrder, frame.Index, fr.nextIndex),
		}
		fr.corrupted = true
		fr.nextIndex = frame.Index + 1
		fr.rawTotal += frame.RawLen
		fr.pend = rec
		return record{}, cse
	}
	fr.nextIndex++
	fr.rawTotal += frame.RawLen
	return rec, nil
}

// IsSalvageable reports whether err is the kind of in-stream damage
// salvage mode can recover past (checksum mismatches, corrupt records,
// ordering violations, truncation) as opposed to I/O failures or API
// misuse.
func IsSalvageable(err error) bool {
	var cse *CorruptSegmentError
	return errors.As(err, &cse) ||
		errors.Is(err, ErrCorrupt) ||
		errors.Is(err, ErrFrameChecksum) ||
		errors.Is(err, ErrFrameOrder) ||
		errors.Is(err, ErrParityGeometry) ||
		errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrTruncated)
}
