package gpu

import (
	"fmt"

	"culzss/internal/format"
	"culzss/internal/lzss"
)

// CompressV2CPU is Version 2's degrade twin: a host-only encoder that
// produces a container bit-identical to CompressV2's — the same
// per-position match records from the same tiled window search, the same
// serial greedy post-pass, the same CodecCULZSSV2 header — without
// touching the simulated device, so no launch, transfer, or chunk fault
// site can fire. It is what the supervised dispatch ladder falls back to
// when every device is quarantined, mirroring CompressV1CPU for V1.
//
// Bit-identity matters: a stream may mix device-encoded and degraded
// segments, and the two must be indistinguishable to the Reader and to
// parity reconstruction (which covers exact frame bytes).
func CompressV2CPU(data []byte, opts Options) ([]byte, error) {
	if err := opts.enter(format.CodecCULZSSV2); err != nil {
		return nil, err
	}
	cfg := opts.Config

	chunks := format.SplitChunks(data, opts.ChunkSize)
	tpb := opts.ThreadsPerBlock
	recs := make([]*v2Records, len(chunks))
	defer releaseV2Records(recs)
	streams := make([][]byte, len(chunks))
	statsPer := make([]lzss.SearchStats, len(chunks))
	if err := format.RunChunks(0, len(chunks), opts.HostWorkers, func(ci int) error {
		recs[ci] = getV2Records(len(chunks[ci]))
		comp, err := encodeV2Chunk(chunks[ci], &cfg, tpb, recs[ci], &statsPer[ci])
		if err != nil {
			return fmt.Errorf("gpu: v2 cpu-fallback chunk %d: %w", ci, err)
		}
		streams[ci] = comp
		return nil
	}); err != nil {
		return nil, err
	}
	opts.addStats(statsPer)

	container, _ := assembleContainer(format.CodecCULZSSV2, cfg, opts.ChunkSize, data, streams)
	return container, nil
}

// encodeV2Chunk reproduces the V2 kernel's functional result for one
// chunk: the per-position match records over the same tiles as the
// device kernel, followed by the serial greedy token-selection pass
// (§III.B.3). The stream lives in rec.
func encodeV2Chunk(chunk []byte, cfg *lzss.Config, tpb int, rec *v2Records, st *lzss.SearchStats) ([]byte, error) {
	scan := newV2Scan(cfg, tpb, rec, st)
	defer scan.release()
	for tile := 0; tile < len(chunk); tile += tpb {
		lo, hi := scan.bounds(tile)
		scan.stage(tile, chunk[lo:hi])
		for pos := tile; pos < min(tile+tpb, len(chunk)); pos++ {
			scan.lane(pos)
		}
	}
	return rec.encode(chunk, cfg)
}
