package gpu

import (
	"fmt"

	"culzss/internal/format"
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
	if err := opts.enter(format.CodecCULZSSV1); err != nil {
		return nil, err
	}
	lanes := newV1Lanes(data, &opts)
	defer lanes.release()
	if err := format.RunChunks(0, len(lanes.chunks), opts.HostWorkers, func(ci int) error {
		if _, err := lanes.encode(ci); err != nil {
			return fmt.Errorf("gpu: cpu-fallback chunk %d: %w", ci, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	opts.addStats(lanes.stats)

	container, _ := assembleContainer(format.CodecCULZSSV1, opts.Config, opts.ChunkSize, data, lanes.streams)
	return container, nil
}
