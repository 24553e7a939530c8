// Parity frames: the erasure-coding record kind that turns salvage from
// "skip the damage" into "repair the damage".
//
// A writer configured with Parity{K, M} cuts the segment-frame sequence
// into *parity groups* of K consecutive data frames (group g covers
// indices [g·K, (g+1)·K); only the final group, flushed at Close, may be
// shorter). After the last data frame of a group it emits M parity
// frames. Each parity frame carries one Reed–Solomon parity shard
// computed over the *exact encoded bytes* of the group's data frames
// (marker, varints, CRC and container alike), zero-padded to the length
// of the longest frame in the group. Because the shards are the wire
// bytes themselves, reconstruction returns the missing frames
// bit-identically — a repaired stream is indistinguishable from an
// undamaged one, and the per-frame CRC re-verifies every repair.
//
// Wire layout (appended after the group's data frames):
//
//	parity frame, repeated M times per group (j = 0..M-1)
//	  marker       1 byte   0x02
//	  firstIndex   varint   index of the group's first data frame
//	  k            varint   data frames in this group (== K except the
//	                        short final group)
//	  m            varint   parity shards for this group
//	  j            varint   which parity shard this frame carries
//	  shardLen     varint   shard length == max encoded frame length
//	  frameLens    k varints  encoded byte length of each data frame
//	  crc          4 bytes  CRC-32 (IEEE) of the shard payload, big endian
//	  payload      shardLen bytes  parity shard j
//
// Every parity frame repeats the full group geometry (firstIndex, k, m,
// frameLens), so any single surviving parity frame is enough to know
// which byte ranges the group occupied — the property the repair layer
// leans on to locate frames that no longer parse. Parity frames are
// CRC-protected like segment frames, making them safe resynchronization
// points in salvage mode. Streams written without Parity contain no
// parity frames and are byte-identical to pre-parity writers; readers
// that predate parity frames treat marker 0x02 as unknown damage and
// salvage past it, losing only the (redundant) parity bytes.
package format

import (
	"encoding/binary"
	"errors"
	"fmt"

	"culzss/internal/ecc"
)

// frameMarkerParity tags a parity frame record.
const frameMarkerParity = 0x02

// Parity geometry caps. K is bounded by the repair buffer a reader must
// hold (a group's worth of encoded frames); M by the write amplification
// that still makes sense for a compression format.
const (
	MaxParityK = 64
	MaxParityM = 16
)

// ErrParityGeometry marks an unusable K/M configuration or a parity
// frame whose declared geometry is out of bounds.
var ErrParityGeometry = errors.New("format: invalid parity geometry")

// ParityFrame is one decoded parity record.
type ParityFrame struct {
	FirstIndex int   // index of the group's first data frame
	K          int   // data frames in this group
	M          int   // parity shards for this group
	J          int   // which parity shard this frame carries (0-based)
	ShardLen   int   // length of Shard == max encoded frame length in group
	FrameLens  []int // encoded byte length of each of the K data frames
	Shard      []byte
}

// EncodedLen returns the exact wire length of this parity frame.
func (pf *ParityFrame) EncodedLen() int {
	n := 1 + uvarintLen(uint64(pf.FirstIndex)) + uvarintLen(uint64(pf.K)) +
		uvarintLen(uint64(pf.M)) + uvarintLen(uint64(pf.J)) + uvarintLen(uint64(pf.ShardLen))
	for _, l := range pf.FrameLens {
		n += uvarintLen(uint64(l))
	}
	return n + 4 + len(pf.Shard)
}

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendParityFrame appends the encoded parity frame to dst.
func AppendParityFrame(dst []byte, pf *ParityFrame) []byte {
	dst = append(dst, frameMarkerParity)
	dst = binary.AppendUvarint(dst, uint64(pf.FirstIndex))
	dst = binary.AppendUvarint(dst, uint64(pf.K))
	dst = binary.AppendUvarint(dst, uint64(pf.M))
	dst = binary.AppendUvarint(dst, uint64(pf.J))
	dst = binary.AppendUvarint(dst, uint64(pf.ShardLen))
	for _, l := range pf.FrameLens {
		dst = binary.AppendUvarint(dst, uint64(l))
	}
	dst = binary.BigEndian.AppendUint32(dst, Checksum32(pf.Shard))
	return append(dst, pf.Shard...)
}

// BuildParityFrames computes the m parity frames for one group whose
// data frames' exact encoded bytes are frames[0..k). firstIndex is the
// stream index of frames[0].
func BuildParityFrames(firstIndex int, frames [][]byte, m int) ([]*ParityFrame, error) {
	k := len(frames)
	if k < 1 || k > MaxParityK || m < 1 || m > MaxParityM {
		return nil, fmt.Errorf("%w: k=%d m=%d (want 1<=k<=%d, 1<=m<=%d)",
			ErrParityGeometry, k, m, MaxParityK, MaxParityM)
	}
	shardLen := 0
	lens := make([]int, k)
	for i, f := range frames {
		if len(f) == 0 {
			return nil, fmt.Errorf("%w: empty frame %d in parity group", ErrParityGeometry, firstIndex+i)
		}
		lens[i] = len(f)
		if len(f) > shardLen {
			shardLen = len(f)
		}
	}
	coder, err := ecc.New(k, m)
	if err != nil {
		return nil, err
	}
	out := make([]*ParityFrame, m)
	for j := 0; j < m; j++ {
		// The coder zero-pads the frames shorter than shardLen itself.
		shard := make([]byte, shardLen)
		if err := coder.ParityRow(shard, frames, j); err != nil {
			return nil, err
		}
		out[j] = &ParityFrame{
			FirstIndex: firstIndex,
			K:          k,
			M:          m,
			J:          j,
			ShardLen:   shardLen,
			FrameLens:  lens,
			Shard:      shard,
		}
	}
	return out, nil
}

// parityGeometryOK reports whether parity-frame header fields are within
// the format's bounds. maxShard is the stream's bound on a shard: a
// shard is a zero-padded segment record, so it is the container bound
// plus maxSegmentHeader.
func parityGeometryOK(firstIndex, k, m, j, shardLen, maxShard int) bool {
	return k >= 1 && k <= MaxParityK && m >= 1 && m <= MaxParityM &&
		j >= 0 && j < m && shardLen >= 1 && shardLen <= maxShard && firstIndex >= 0
}

// validateParityGeometry rejects parity-frame header fields outside the
// format's bounds before any of them size an allocation. A shard longer
// than maxShard is corrupt, like a container beyond the frame bound.
func validateParityGeometry(firstIndex, k, m, j, shardLen, maxShard int) error {
	switch {
	case parityGeometryOK(firstIndex, k, m, j, shardLen, maxShard):
		return nil
	case shardLen > maxShard:
		return fmt.Errorf("%w: parity shard length %d exceeds the frame bound %d", ErrCorrupt, shardLen, maxShard)
	default:
		return fmt.Errorf("%w: first index %d, k=%d, m=%d, shard %d, shard length %d",
			ErrParityGeometry, firstIndex, k, m, j, shardLen)
	}
}
