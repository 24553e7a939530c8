// Package format defines the CULZSS container format shared by every codec
// in this repository.
//
// The container records the compression parameters and — central to the
// paper's parallel decompression (§III.C) — the list of per-chunk compressed
// sizes. With that table, any chunk of the compressed payload can be located
// and decompressed independently, which is what lets the GPU decompressor
// assign chunks to blocks.
//
// Layout (all multi-byte integers are unsigned varints unless noted):
//
//	magic        4 bytes  "CLZ1"
//	version      1 byte   container format version (currently 1)
//	codec        1 byte   which compressor produced the payload
//	minMatch     1 byte   minimum match length of the LZSS configuration
//	reserved     1 byte   must be zero
//	window       varint   sliding-window size in bytes
//	lookahead    varint   lookahead-buffer size in bytes
//	chunkSize    varint   uncompressed chunk size (0 = single chunk)
//	originalLen  varint   total uncompressed length
//	checksum     4 bytes  CRC-32 (IEEE) of the uncompressed data, big endian
//	chunkCount   varint   number of entries in the chunk table
//	chunkSizes   varints  compressed size of each chunk, in order
//	payload      ...      concatenated compressed chunks
package format

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
)

// Magic identifies a CULZSS container.
const Magic = "CLZ1"

// Version is the current container format version.
const Version = 1

// Codec identifies the compressor that produced a payload.
type Codec uint8

// Codec values. The numeric values are part of the on-disk format.
const (
	// CodecSerialBitPacked is the Dipperstein-shaped dense bit stream
	// produced by the serial CPU implementation (single chunk).
	CodecSerialBitPacked Codec = 1
	// CodecChunkedBitPacked is the pthread-style chunked variant of the
	// bit-packed stream: each chunk is an independent bit stream.
	CodecChunkedBitPacked Codec = 2
	// CodecCULZSSV1 is the GPU Version 1 byte-aligned token stream
	// (flag bytes + 16-bit coded tokens), chunked.
	CodecCULZSSV1 Codec = 3
	// CodecCULZSSV2 is the GPU Version 2 stream. The wire format is the
	// same byte-aligned token stream as V1; the codec id records which
	// kernel produced it.
	CodecCULZSSV2 Codec = 4
	// CodecBZip2 is the bzip2-style pipeline (RLE1+BWT+MTF+RLE2+Huffman).
	CodecBZip2 Codec = 5
	// CodecStoreRaw stores the payload uncompressed (single chunk, the
	// plaintext verbatim). The streaming writer's adaptive selector emits
	// it for segments that would expand under LZSS: the only cost is the
	// container header.
	CodecStoreRaw Codec = 6
)

// CodecMax is the highest structurally valid codec value. The range
// above CodecStoreRaw is headroom for pluggable engines: ParseHeader
// accepts those values (the container is structurally sound — the codec
// byte is an open namespace, not a closed enum), and decode dispatch
// fails with a typed unknown-codec error when no registered engine
// claims the value. Values above CodecMax are treated as corruption.
const CodecMax Codec = 15

// String implements fmt.Stringer for diagnostics and table rendering.
func (c Codec) String() string {
	switch c {
	case CodecSerialBitPacked:
		return "serial-lzss"
	case CodecChunkedBitPacked:
		return "pthread-lzss"
	case CodecCULZSSV1:
		return "culzss-v1"
	case CodecCULZSSV2:
		return "culzss-v2"
	case CodecBZip2:
		return "bzip2"
	case CodecStoreRaw:
		return "store-raw"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// Valid reports whether c is structurally valid — in the codec byte's
// assigned-or-reserved range [1, CodecMax]. A valid value is not
// necessarily decodable: whether an engine claims it is a registry
// question (internal/codec), answered at decode dispatch.
func (c Codec) Valid() bool {
	return c >= CodecSerialBitPacked && c <= CodecMax
}

// Errors returned by ParseHeader and Validate.
var (
	ErrBadMagic   = errors.New("format: bad magic (not a CULZSS container)")
	ErrBadVersion = errors.New("format: unsupported container version")
	ErrTruncated  = errors.New("format: truncated container")
	ErrCorrupt    = errors.New("format: corrupt container")
	ErrChecksum   = errors.New("format: checksum mismatch after decompression")
)

// Header is the parsed container header.
type Header struct {
	Codec       Codec
	MinMatch    uint8
	Window      int
	Lookahead   int
	ChunkSize   int    // uncompressed bytes per chunk; 0 means single chunk
	OriginalLen int    // total uncompressed length
	Checksum    uint32 // CRC-32 (IEEE) of the uncompressed data
	ChunkSizes  []int  // compressed size of each chunk
}

// Checksum32 computes the checksum stored in containers.
func Checksum32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Checksum32Update extends a running Checksum32 with more data, for
// streaming producers that never hold the whole plaintext:
// Checksum32Update(Checksum32(a), b) == Checksum32(append(a, b...)).
func Checksum32Update(crc uint32, data []byte) uint32 {
	return crc32.Update(crc, crc32.IEEETable, data)
}

// AppendHeader appends the encoded header to dst and returns the extended
// slice.
func AppendHeader(dst []byte, h *Header) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version, byte(h.Codec), h.MinMatch, 0)
	dst = binary.AppendUvarint(dst, uint64(h.Window))
	dst = binary.AppendUvarint(dst, uint64(h.Lookahead))
	dst = binary.AppendUvarint(dst, uint64(h.ChunkSize))
	dst = binary.AppendUvarint(dst, uint64(h.OriginalLen))
	dst = binary.BigEndian.AppendUint32(dst, h.Checksum)
	dst = binary.AppendUvarint(dst, uint64(len(h.ChunkSizes)))
	for _, s := range h.ChunkSizes {
		dst = binary.AppendUvarint(dst, uint64(s))
	}
	return dst
}

// ParseHeader decodes a container header from the front of data and returns
// the header and the byte offset where the payload begins.
func ParseHeader(data []byte) (*Header, int, error) {
	if len(data) < len(Magic)+4 {
		return nil, 0, ErrTruncated
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, 0, ErrBadMagic
	}
	pos := len(Magic)
	if data[pos] != Version {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, data[pos])
	}
	h := &Header{Codec: Codec(data[pos+1]), MinMatch: data[pos+2]}
	if data[pos+3] != 0 {
		return nil, 0, fmt.Errorf("%w: nonzero reserved byte", ErrCorrupt)
	}
	pos += 4
	if !h.Codec.Valid() {
		return nil, 0, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, uint8(h.Codec))
	}

	next := func() (int, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, ErrTruncated
		}
		if v > 1<<40 {
			return 0, fmt.Errorf("%w: implausible varint %d", ErrCorrupt, v)
		}
		pos += n
		return int(v), nil
	}

	var err error
	if h.Window, err = next(); err != nil {
		return nil, 0, err
	}
	if h.Lookahead, err = next(); err != nil {
		return nil, 0, err
	}
	if h.ChunkSize, err = next(); err != nil {
		return nil, 0, err
	}
	if h.OriginalLen, err = next(); err != nil {
		return nil, 0, err
	}
	if pos+4 > len(data) {
		return nil, 0, ErrTruncated
	}
	h.Checksum = binary.BigEndian.Uint32(data[pos:])
	pos += 4
	nChunks, err := next()
	if err != nil {
		return nil, 0, err
	}
	if nChunks > len(data) { // each chunk-size varint takes >= 1 byte
		return nil, 0, fmt.Errorf("%w: chunk count %d exceeds container size", ErrCorrupt, nChunks)
	}
	h.ChunkSizes = make([]int, nChunks)
	for i := range h.ChunkSizes {
		if h.ChunkSizes[i], err = next(); err != nil {
			return nil, 0, err
		}
	}
	if err := h.Validate(len(data) - pos); err != nil {
		return nil, 0, err
	}
	return h, pos, nil
}

// Validate checks internal consistency of the header against the payload
// length that follows it.
func (h *Header) Validate(payloadLen int) error {
	total := 0
	for i, s := range h.ChunkSizes {
		if s < 0 {
			return fmt.Errorf("%w: negative chunk size at %d", ErrCorrupt, i)
		}
		total += s
	}
	if total > payloadLen {
		return fmt.Errorf("%w: chunk table wants %d payload bytes, have %d", ErrTruncated, total, payloadLen)
	}
	// Without a chunk size one chunk spans the whole input (the serial
	// and raw-store codecs); more chunks would all decode into the same
	// output range.
	if h.ChunkSize == 0 && len(h.ChunkSizes) > 1 {
		return fmt.Errorf("%w: %d chunks without a chunk size", ErrCorrupt, len(h.ChunkSizes))
	}
	if h.ChunkSize > 0 && h.OriginalLen > 0 {
		want := (h.OriginalLen + h.ChunkSize - 1) / h.ChunkSize
		if want != len(h.ChunkSizes) {
			return fmt.Errorf("%w: %d chunks for originalLen=%d chunkSize=%d (want %d)",
				ErrCorrupt, len(h.ChunkSizes), h.OriginalLen, h.ChunkSize, want)
		}
	}
	return nil
}

// PayloadLen returns the total number of payload bytes the chunk table
// accounts for.
func (h *Header) PayloadLen() int {
	total := 0
	for _, s := range h.ChunkSizes {
		total += s
	}
	return total
}

// ChunkBound describes one chunk's position in the uncompressed input and
// the compressed payload.
type ChunkBound struct {
	Index     int
	UncompOff int // offset in the uncompressed data
	UncompLen int // uncompressed length of this chunk
	CompOff   int // offset in the compressed payload
	CompLen   int // compressed length of this chunk
}

// ChunkBounds expands the chunk table into absolute offsets. The final
// chunk's uncompressed length is the remainder of OriginalLen.
func (h *Header) ChunkBounds() []ChunkBound {
	bounds := make([]ChunkBound, len(h.ChunkSizes))
	compOff := 0
	for i, cs := range h.ChunkSizes {
		uOff := i * h.ChunkSize
		uLen := h.ChunkSize
		if h.ChunkSize == 0 {
			uLen = h.OriginalLen
		} else if uOff+uLen > h.OriginalLen {
			uLen = h.OriginalLen - uOff
		}
		bounds[i] = ChunkBound{Index: i, UncompOff: uOff, UncompLen: uLen, CompOff: compOff, CompLen: cs}
		compOff += cs
	}
	return bounds
}

// SplitChunks returns the uncompressed input cut into chunkSize pieces.
// A chunkSize of zero or >= len(data) yields a single chunk. The returned
// slices alias data.
func SplitChunks(data []byte, chunkSize int) [][]byte {
	if chunkSize <= 0 || chunkSize >= len(data) {
		if len(data) == 0 {
			return nil
		}
		return [][]byte{data}
	}
	n := (len(data) + chunkSize - 1) / chunkSize
	chunks := make([][]byte, 0, n)
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		chunks = append(chunks, data[off:end])
	}
	return chunks
}

// RunChunks is the host chunk pool every chunked codec runs its chunks
// on: it calls fn on each index in [lo, hi) over at most workers
// goroutines (0 or less means GOMAXPROCS), inline for one worker or one
// index. Indexes are claimed in order and none is claimed once one has
// failed, so every index below a failure runs and the error returned,
// that of the lowest failing index, does not depend on scheduling.
func RunChunks(lo, hi, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || hi-lo <= 1 {
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		lowest  int
		lowErr  error
		running sync.WaitGroup
	)
	next.Store(int64(lo))
	for w := min(workers, hi-lo); w > 0; w-- {
		running.Add(1)
		go func() {
			defer running.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if lowErr == nil || i < lowest {
						lowest, lowErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	running.Wait()
	return lowErr
}

// Assemble is the one container builder (§III.A's reassembly, §III.B.3's
// host concatenation): it sets h's OriginalLen, Checksum and ChunkSizes
// from data and its per-chunk streams, and returns the header followed
// by the streams in chunk order.
func Assemble(h *Header, data []byte, streams [][]byte) []byte {
	h.OriginalLen, h.Checksum = len(data), Checksum32(data)
	h.ChunkSizes = make([]int, len(streams))
	total := 0
	for i, s := range streams {
		h.ChunkSizes[i] = len(s)
		total += len(s)
	}
	out := AppendHeader(make([]byte, 0, 64+len(streams)*3+total), h)
	for _, s := range streams {
		out = append(out, s...)
	}
	return out
}
