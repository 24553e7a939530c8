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
	"runtime"
	"sync"

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
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
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
	h := &format.Header{
		Codec:       format.CodecSerialBitPacked,
		MinMatch:    uint8(opts.Config.MinMatch),
		Window:      opts.Config.Window,
		Lookahead:   opts.Config.MaxMatch,
		ChunkSize:   0,
		OriginalLen: len(data),
		Checksum:    format.Checksum32(data),
	}
	if len(data) > 0 {
		h.ChunkSizes = []int{len(payload)}
	}
	out := format.AppendHeader(make([]byte, 0, len(format.Magic)+32+len(payload)), h)
	return append(out, payload...), nil
}

// CompressParallel compresses data with the pthread strategy: independent
// chunks compressed concurrently and reassembled in order.
func CompressParallel(data []byte, opts Options) ([]byte, error) {
	opts.fill()
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	chunks := format.SplitChunks(data, opts.ChunkSize)
	streams := make([][]byte, len(chunks))
	errs := make([]error, len(chunks))
	statsPer := make([]lzss.SearchStats, len(chunks))

	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.Workers)
	for i, chunk := range chunks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, chunk []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			var st *lzss.SearchStats
			if opts.Stats != nil {
				st = &statsPer[i]
			}
			streams[i], errs[i] = lzss.EncodeBitPacked(chunk, opts.Config, opts.Search, st)
		}(i, chunk)
	}
	wg.Wait()

	total := 0
	for i := range chunks {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += len(streams[i])
		if opts.Stats != nil {
			opts.Stats.Add(statsPer[i])
		}
	}

	h := &format.Header{
		Codec:       format.CodecChunkedBitPacked,
		MinMatch:    uint8(opts.Config.MinMatch),
		Window:      opts.Config.Window,
		Lookahead:   opts.Config.MaxMatch,
		ChunkSize:   opts.ChunkSize,
		OriginalLen: len(data),
		Checksum:    format.Checksum32(data),
		ChunkSizes:  make([]int, len(chunks)),
	}
	for i, s := range streams {
		h.ChunkSizes[i] = len(s)
	}
	out := format.AppendHeader(make([]byte, 0, 64+total), h)
	// Reassembly step (paper §III.A): concatenate the per-chunk streams in
	// chunk order.
	for _, s := range streams {
		out = append(out, s...)
	}
	return out, nil
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

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(bounds) == 1 || workers == 1 {
		for _, b := range bounds {
			dst := out[b.UncompOff:b.UncompOff:(b.UncompOff + b.UncompLen)]
			dec, err := lzss.AppendDecodedBitPacked(dst, payload[b.CompOff:b.CompOff+b.CompLen], b.UncompLen, cfg)
			if err != nil {
				return nil, fmt.Errorf("chunk %d: %w", b.Index, err)
			}
			copy(out[b.UncompOff:], dec)
		}
	} else {
		var wg sync.WaitGroup
		errs := make([]error, len(bounds))
		sem := make(chan struct{}, workers)
		for _, b := range bounds {
			wg.Add(1)
			sem <- struct{}{}
			go func(b format.ChunkBound) {
				defer wg.Done()
				defer func() { <-sem }()
				dst := out[b.UncompOff:b.UncompOff:(b.UncompOff + b.UncompLen)]
				dec, err := lzss.AppendDecodedBitPacked(dst, payload[b.CompOff:b.CompOff+b.CompLen], b.UncompLen, cfg)
				if err != nil {
					errs[b.Index] = fmt.Errorf("chunk %d: %w", b.Index, err)
					return
				}
				copy(out[b.UncompOff:], dec)
			}(b)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	if format.Checksum32(out) != h.Checksum {
		return nil, format.ErrChecksum
	}
	return out, nil
}
