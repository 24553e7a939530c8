package gpu

import (
	"fmt"

	"culzss/internal/format"
	"culzss/internal/lzss"
)

// CompressV1CPU is the degrade path behind the streaming Writer's
// retry/fallback policy: a host-only encoder that produces a container
// bit-identical to CompressV1's — same chunking, same per-chunk
// byte-aligned token stream from the same brute-force search, same
// CodecCULZSSV1 header — without touching the simulated device, so no
// launch, transfer, or chunk fault site can fire. When the GPU path fails
// persistently, a segment compressed here still decodes through the
// ordinary chunk-parallel Decompress and round-trips byte-identically.
func CompressV1CPU(data []byte, opts Options) ([]byte, error) {
	opts.fill(format.CodecCULZSSV1)
	if err := opts.ctxErr(); err != nil {
		return nil, err
	}
	cfg := opts.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window > 256 || cfg.MaxMatch-cfg.MinMatch > 255 {
		return nil, fmt.Errorf("gpu: config %+v does not fit the 16-bit token", cfg)
	}

	// Chunk streams go into the V1 lanes' pooled buckets, released once
	// the container holds a copy.
	chunks := format.SplitChunks(data, opts.ChunkSize)
	bucketCap := lzss.MaxEncodedLenByteAligned(opts.ChunkSize)
	streams := make([][]byte, len(chunks))
	buckets := make([]*[]byte, len(chunks))
	defer releaseBuckets(buckets)
	statsPer := make([]lzss.SearchStats, len(chunks))
	if err := hostChunks(0, len(chunks), opts.HostWorkers, func(ci int) error {
		buckets[ci] = getBucket(bucketCap)
		comp, err := lzss.AppendEncodedByteAligned((*buckets[ci])[:0], chunks[ci], cfg, lzss.SearchBrute, &statsPer[ci])
		if err != nil {
			return fmt.Errorf("gpu: cpu-fallback chunk %d: %w", ci, err)
		}
		*buckets[ci], streams[ci] = comp, comp
		return nil
	}); err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		for i := range statsPer {
			opts.Stats.Add(statsPer[i])
		}
	}

	container, _ := assembleContainer(format.CodecCULZSSV1, cfg, opts.ChunkSize, data, streams)
	return container, nil
}
