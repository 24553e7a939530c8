// Tail scanning and resume: recovering the longest verifiable prefix of
// an interrupted CLZS stream and continuing it in place.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"

	"culzss/internal/core"
	"culzss/internal/format"
)

// TailReport is what ScanTail recovers from an interrupted stream: the
// last byte offset up to which every record verifies, and the stream
// state (index, plaintext length, incremental CRC) a resumed writer
// needs to continue it.
type TailReport struct {
	// HeaderOK reports that the stream header parsed. When false the
	// file holds no usable prefix (empty, or cut inside the header) and
	// resume starts the stream over.
	HeaderOK bool
	// SegmentSize is the segment size from the header, which a resumed
	// writer must reuse.
	SegmentSize int
	// LastGoodOffset is the offset just past the last fully verified
	// record. Everything after it is unverifiable and must be truncated.
	LastGoodOffset int64
	// NextIndex is the index the next segment frame must carry.
	NextIndex int
	// TotalLen is the plaintext byte count the verified frames decode to.
	TotalLen int
	// CRC is the running plaintext CRC-32 over those TotalLen bytes.
	CRC uint32
	// ParityK and ParityM report the stream's parity geometry, learned
	// from its first parity frame; 0,0 when the verified prefix carries
	// no parity.
	ParityK, ParityM int
	// GroupFrames holds the exact encoded bytes of the verified data
	// frames after the last kept parity run — the trailing open parity
	// group. A resumed writer seeds its accumulator with them
	// (core.ResumeState.GroupFrames) so the group's eventual parity
	// covers the pre-crash frames too. Empty for parity-less streams and
	// group-boundary cuts.
	GroupFrames [][]byte
	// Repaired is the number of frames reconstructed in place from
	// parity before this report's scan (filled by Resume's repair pass;
	// always 0 from a direct ScanTail).
	Repaired int
	// Complete reports the stream already ends with a verified trailer —
	// nothing was lost; the file only needs finalizing.
	Complete bool
	// Truncated is the number of unverifiable tail bytes
	// (fileSize - LastGoodOffset).
	Truncated int64
	// Cause is the parse or verification error that ended the scan for
	// an incomplete stream; nil when Complete.
	Cause error
}

// ResumeState converts the report into the core.Writer hook.
func (t *TailReport) ResumeState() *core.ResumeState {
	return &core.ResumeState{
		NextIndex:   t.NextIndex,
		Total:       t.TotalLen,
		CRC:         t.CRC,
		GroupFrames: t.GroupFrames,
	}
}

// ScanTail walks an interrupted (possibly trailer-less) framed stream
// from the start, fully verifying each record — frame CRC, decode, raw
// length — and reports the last good offset plus the stream state at it.
// Damage or truncation anywhere in the tail is expected and lands in the
// report's Cause, not the returned error; the error is reserved for
// files that are not a CLZS stream at all (bad magic, wrong version) and
// for I/O failures, where "truncate and resume" would destroy data the
// caller never meant to treat as a resumable stream.
func ScanTail(r io.ReadSeeker, p core.Params) (*TailReport, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	fr, err := format.NewFrameReader(r)
	if err != nil {
		if errors.Is(err, format.ErrTruncated) {
			// Cut inside the header: no usable prefix, start over.
			return &TailReport{Truncated: size, Cause: err}, nil
		}
		return nil, err
	}
	rep := &TailReport{HeaderOK: true, SegmentSize: fr.SegmentSize, LastGoodOffset: fr.Offset()}
	// Trailing-parity rule: a parity run is a resume point only when it is
	// complete and covers a full-size group (k == the stream's K). A short
	// run is the tail parity of an interrupted Close — keeping it would
	// freeze the group short, so it is truncated and its data frames
	// carried in GroupFrames for the resumed writer to re-cover. Partial
	// runs never advance the verified offset (the reader rejects the
	// stream shapes a resumed writer could legally append after them).
	var group [][]byte
	trackGroup := true
	fr.OnParity = func(pf *format.ParityFrame) {
		if pf.J == pf.M-1 && pf.K == fr.ParityK {
			rep.LastGoodOffset = fr.Offset()
			group = group[:0]
		}
	}
	for {
		seg, trailer, err := fr.Next()
		if err != nil {
			rep.Cause = err
			break
		}
		if trailer != nil {
			if trailer.Checksum != rep.CRC {
				rep.Cause = fmt.Errorf("%w: trailer stream CRC %08x, frames decode to %08x",
					format.ErrCorrupt, trailer.Checksum, rep.CRC)
				break
			}
			rep.Complete = true
			rep.LastGoodOffset = fr.Offset()
			break
		}
		raw, err := core.Decompress(seg.Container, p)
		if err != nil {
			rep.Cause = fmt.Errorf("durable: segment %d does not decode: %w", seg.Index, err)
			break
		}
		if len(raw) != seg.RawLen {
			rep.Cause = fmt.Errorf("durable: segment %d decodes to %d bytes, frame claims %d",
				seg.Index, len(raw), seg.RawLen)
			break
		}
		rep.CRC = format.Checksum32Update(rep.CRC, raw)
		rep.TotalLen += len(raw)
		rep.NextIndex++
		rep.LastGoodOffset = fr.Offset()
		if trackGroup {
			group = append(group, format.AppendSegmentFrame(nil, seg.Index, seg.RawLen, seg.Container))
			if fr.ParityK == 0 && len(group) > format.MaxParityK {
				// A parity-bearing writer emits parity at least every
				// MaxParityK frames; this stream carries none. Stop
				// retaining encodings — the memory would be unbounded.
				group, trackGroup = nil, false
			}
		}
	}
	rep.ParityK, rep.ParityM = fr.ParityK, fr.ParityM
	// The trailing frames are carried even when the prefix ends before the
	// stream's first parity run: the resumed writer's options declare
	// whether parity is in play, and a parity-less resume simply ignores
	// them.
	if !rep.Complete {
		rep.GroupFrames = group
	}
	rep.Truncated = size - rep.LastGoodOffset
	return rep, nil
}

// repairPartial runs a salvage+repair pass over the first size bytes of
// an interrupted partial file: every frame that parity can reconstruct
// is rewritten in place (the repair layer's RepairSink yields the exact
// original bytes at their exact offsets), so a following ScanTail
// verifies straight through damage that would otherwise cut the resume
// prefix. Returns the number of frames patched; 0 means the file is
// untouched. Patching is safe by construction — every sunk frame is
// CRC-verified bit-identical to what the original writer put there.
func repairPartial(f *os.File, size int64) (int, error) {
	type patch struct {
		off int64
		enc []byte
	}
	fr, err := format.NewFrameReaderSalvage(io.NewSectionReader(f, 0, size))
	if err != nil {
		return 0, nil // unusable header; nothing to repair
	}
	fr.EnableRepair()
	var patches []patch
	fr.RepairSink = func(index int, off int64, encoded []byte) {
		if off >= 0 {
			patches = append(patches, patch{off, append([]byte(nil), encoded...)})
		}
	}
	for {
		_, trailer, err := fr.Next()
		if trailer != nil {
			break
		}
		if err != nil {
			var cse *format.CorruptSegmentError
			var rse *format.RepairedSegmentError
			if errors.As(err, &rse) || errors.As(err, &cse) {
				continue // non-sticky notices; keep draining
			}
			break // terminal: end of the usable prefix
		}
	}
	if len(patches) == 0 {
		return 0, nil
	}
	for _, p := range patches {
		if _, err := f.WriteAt(p.enc, p.off); err != nil {
			return 0, fmt.Errorf("durable: patching repaired frame at %d: %w", p.off, err)
		}
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("durable: committing repaired frames: %w", err)
	}
	return len(patches), nil
}

// Resume continues an interrupted durable stream: it scans
// PartialPath(path), truncates to the last verifiable frame boundary,
// and returns a Writer that appends to the same stream — the eventual
// file is byte-equivalent in decoded content (and trailer CRC) to an
// uninterrupted run over the same input.
//
// Three shapes come back:
//   - The partial holds a complete stream (the crash hit between trailer
//     and rename): Resume finalizes it and returns (nil, report, nil) —
//     there is nothing left to write.
//   - The partial has a usable prefix: the returned Writer continues it;
//     the caller must skip the first report.TotalLen bytes of its input
//     (they are already compressed) and Write the remainder.
//   - The partial has no usable prefix (cut inside the header): the
//     returned Writer starts the stream over; report.TotalLen is 0.
//
// Params and o.Stream.Codec must match the original run where output
// bytes are concerned (codec, Window...); Options may change the commit
// cadence, but the segment size is taken from the partial's header,
// overriding o.Stream.SegmentSize.
func Resume(path string, p core.Params, o Options) (*Writer, *TailReport, error) {
	f, err := os.OpenFile(PartialPath(path), os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	rep, err := ScanTail(f, p)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	met := newDurableMetrics(p.Obs)
	if !rep.Complete && rep.HeaderOK && rep.Truncated > 0 {
		// Before truncating unverifiable tail bytes, let parity heal them:
		// a torn or corrupted frame whose group parity survived is
		// rewritten in place, and the rescan then verifies past it.
		if size, serr := f.Seek(0, io.SeekEnd); serr == nil {
			if n, perr := repairPartial(f, size); perr == nil && n > 0 {
				met.resumeRepaired.Add(int64(n))
				if rep2, serr := ScanTail(f, p); serr == nil {
					rep2.Repaired = n
					rep = rep2
				}
			}
		}
	}
	met.resumes.Inc()
	met.resumeTruncated.Add(rep.Truncated)
	if err := f.Truncate(rep.LastGoodOffset); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Seek(rep.LastGoodOffset, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("durable: %w", err)
	}

	if rep.Complete {
		// The stream finished; only the rename was lost. Finalize it.
		cw := newCommitWriter(f, p, o, format.NewBoundaryScanner())
		cw.seed(rep.LastGoodOffset, rep.NextIndex)
		if err := cw.finalize(path); err != nil {
			return nil, rep, err
		}
		return nil, rep, nil
	}

	var scan *format.BoundaryScanner
	if rep.HeaderOK {
		o.Stream.SegmentSize = rep.SegmentSize
		o.Stream.Resume = rep.ResumeState()
		if o.Stream.Parity.K == 0 && rep.ParityK > 0 {
			// The caller did not restate the parity geometry; inherit it
			// from the stream so the resumed half stays covered too.
			o.Stream.Parity = core.ParityConfig{K: rep.ParityK, M: rep.ParityM}
		}
		scan = format.ResumeBoundaryScanner(rep.LastGoodOffset, rep.NextIndex, rep.SegmentSize)
	} else {
		// Nothing recoverable: restart the stream in the same partial.
		o.Stream.Resume = nil
		scan = format.NewBoundaryScanner()
	}
	cw := newCommitWriter(f, p, o, scan)
	cw.seed(rep.LastGoodOffset, rep.NextIndex)
	return &Writer{w: core.NewWriterOptions(cw, p, o.Stream), cw: cw, path: path}, rep, nil
}
