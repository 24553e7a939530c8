// Package cpulzss implements the paper's two CPU baselines:
//
//   - Serial LZSS (§III.A): a single-threaded whole-buffer compressor
//     adapted, like the paper's, from Dipperstein's reference
//     implementation — greedy longest-match parsing over a sliding window
//     with a dense bit-packed token stream.
//   - Pthread LZSS (§III.A): the input is divided into chunks, the chunks
//     are compressed concurrently by a pool of workers (goroutines here,
//     POSIX threads in the paper), and the compressed chunks are
//     reassembled into one container — the PBZIP2 strategy [16].
//
// Both produce containers in the internal/format framing so that any
// decompressor in the repository can locate chunks and verify checksums.
package cpulzss

import (
	"fmt"

	"culzss/internal/format"
	"culzss/internal/lzss"
)

// Options configures the CPU compressors.
type Options struct {
	// Config is the LZSS dictionary configuration. The zero value means
	// lzss.Dipperstein(), the paper's serial parameters.
	Config lzss.Config
	// Search selects the longest-match strategy (brute force by default,
	// exactly as the paper's serial code; hash chains are the §VII
	// future-work acceleration).
	Search lzss.Search
	// ChunkSize is the number of uncompressed bytes per parallel chunk.
	// Zero means DefaultChunkSize. Ignored by CompressSerial.
	ChunkSize int
	// Workers is the number of concurrent compression workers. Zero means
	// runtime.GOMAXPROCS(0). Ignored by CompressSerial.
	Workers int
	// Stats, when non-nil, accumulates match-search counters across the
	// whole compression (summed over workers).
	Stats *lzss.SearchStats
}

// DefaultChunkSize is the per-thread chunk granularity of the pthread
// version. The paper divides the file evenly among threads; a fixed 256 KiB
// chunk keeps the work queue balanced for any worker count.
const DefaultChunkSize = 256 << 10

func (o *Options) fill() {
	if o.Config == (lzss.Config{}) {
		o.Config = lzss.Dipperstein()
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
}

// header is the container header of an opts run; Assemble fills the
// rest.
func (o *Options) header(codec format.Codec, chunkSize int) *format.Header {
	return &format.Header{
		Codec:     codec,
		MinMatch:  uint8(o.Config.MinMatch),
		Window:    o.Config.Window,
		Lookahead: o.Config.MaxMatch,
		ChunkSize: chunkSize,
	}
}

// CompressSerial compresses data exactly as the paper's serial CPU
// implementation: one bit-packed token stream over the whole buffer.
func CompressSerial(data []byte, opts Options) ([]byte, error) {
	opts.fill()
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	payload, err := lzss.EncodeBitPacked(data, opts.Config, opts.Search, opts.Stats)
	if err != nil {
		return nil, err
	}
	// One chunk spanning the input; empty data has none.
	var streams [][]byte
	if len(data) > 0 {
		streams = [][]byte{payload}
	}
	return format.Assemble(opts.header(format.CodecSerialBitPacked, 0), data, streams), nil
}

// CompressParallel compresses data with the pthread strategy: independent
// chunks compressed concurrently and reassembled in order (paper
// §III.A).
func CompressParallel(data []byte, opts Options) ([]byte, error) {
	opts.fill()
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	chunks := format.SplitChunks(data, opts.ChunkSize)
	streams := make([][]byte, len(chunks))
	statsPer := make([]lzss.SearchStats, len(chunks))
	if err := format.RunChunks(0, len(chunks), opts.Workers, func(i int) error {
		var st *lzss.SearchStats
		if opts.Stats != nil {
			st = &statsPer[i]
		}
		var err error
		streams[i], err = lzss.EncodeBitPacked(chunks[i], opts.Config, opts.Search, st)
		return err
	}); err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		for i := range statsPer {
			opts.Stats.Add(statsPer[i])
		}
	}
	return format.Assemble(opts.header(format.CodecChunkedBitPacked, opts.ChunkSize), data, streams), nil
}

// Decompress expands a container produced by CompressSerial or
// CompressParallel, verifying the checksum. Chunked containers are decoded
// with up to workers concurrent goroutines; workers <= 0 means
// runtime.GOMAXPROCS(0).
func Decompress(container []byte, workers int) ([]byte, error) {
	h, off, err := format.ParseHeader(container)
	if err != nil {
		return nil, err
	}
	switch h.Codec {
	case format.CodecSerialBitPacked, format.CodecChunkedBitPacked:
	default:
		return nil, fmt.Errorf("cpulzss: container holds %v, not a bit-packed stream", h.Codec)
	}
	cfg := lzss.Config{Window: h.Window, MaxMatch: h.Lookahead, MinMatch: int(h.MinMatch)}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cpulzss: %w: %v", format.ErrCorrupt, err)
	}
	payload := container[off:]
	bounds := h.ChunkBounds()
	// Bound each chunk's claim by what its payload can decode to before
	// allocating for it. The claims must also cover OriginalLen, or a
	// chunk-less header could still ask for any amount.
	claimed := 0
	for _, b := range bounds {
		if b.UncompLen > lzss.MaxDecodedLenBitPacked(b.CompLen, cfg) {
			return nil, fmt.Errorf("cpulzss: chunk %d: %w: %d payload bytes cannot decode to %d",
				b.Index, format.ErrCorrupt, b.CompLen, b.UncompLen)
		}
		claimed += b.UncompLen
	}
	if claimed != h.OriginalLen {
		return nil, fmt.Errorf("cpulzss: %w: chunks cover %d of %d bytes", format.ErrCorrupt, claimed, h.OriginalLen)
	}
	out := make([]byte, h.OriginalLen)
	if err := format.RunChunks(0, len(bounds), workers, func(i int) error {
		b := bounds[i]
		dst := out[b.UncompOff:b.UncompOff:(b.UncompOff + b.UncompLen)]
		dec, err := lzss.AppendDecodedBitPacked(dst, payload[b.CompOff:b.CompOff+b.CompLen], b.UncompLen, cfg)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", b.Index, err)
		}
		copy(out[b.UncompOff:], dec)
		return nil
	}); err != nil {
		return nil, err
	}

	if format.Checksum32(out) != h.Checksum {
		return nil, format.ErrChecksum
	}
	return out, nil
}
