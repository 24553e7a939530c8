package gpu

import (
	"fmt"
	"sync"

	"culzss/internal/cudasim"
	"culzss/internal/format"
	"culzss/internal/lzss"
)

// CompressV1 runs the CULZSS Version 1 kernel: chunk-per-thread sequential
// LZSS with shared-memory windows (paper §III.B.1). It returns the
// container, the performance report, and an error.
func CompressV1(data []byte, opts Options) ([]byte, *Report, error) {
	if err := opts.enter(format.CodecCULZSSV1); err != nil {
		return nil, nil, err
	}
	dev := opts.device()
	cfg := opts.Config

	// Device-side buckets: worst-case capacity per chunk; the host strips
	// the empty tails afterwards. Functionally each thread encodes out of
	// its host-mapped chunk slice into a pooled buffer; the traffic model
	// is charged through ThreadCtx.GlobalAccess below.
	lanes := newV1Lanes(data, &opts)
	defer lanes.release()
	nChunks := len(lanes.chunks)
	tpb := opts.ThreadsPerBlock
	blocks := (nChunks + tpb - 1) / tpb
	if blocks == 0 {
		blocks = 1 // degenerate empty input still "launches"
	}

	// Per-thread shared budget: the sliding window plus the uncoded
	// lookahead buffer, one set per thread (this is what caps V1 at 128
	// threads/block on a 16 KiB part, paper §V).
	sharedPerThread := cfg.Window + cfg.MaxMatch
	sharedPerBlock := sharedPerThread * tpb
	if opts.DisableSharedMemory {
		sharedPerBlock = 0 // buffers live in global memory instead
	}

	var rec faultRecorder

	if err := opts.transferFault("h2d"); err != nil {
		return nil, nil, err
	}
	rep, err := dev.LaunchPhased(cudasim.LaunchConfig{
		Kernel:          "culzss_v1",
		Blocks:          blocks,
		ThreadsPerBlock: tpb,
		SharedPerBlock:  sharedPerBlock,
		Serialization:   SerializationV1,
		HostWorkers:     opts.HostWorkers,
		Context:         opts.Context,
	}, func(b *cudasim.BlockCtx) {
		if sharedPerBlock > 0 {
			_ = b.Shared(sharedPerBlock) // window+lookahead residency check
		}
		base := b.Index * tpb
		b.Parallel(func(th *cudasim.ThreadCtx) {
			ci := base + th.Tid
			if ci >= nChunks || rec.tripped() {
				return // early abort: a recorded fault voids the launch
			}
			comp, err := lanes.encode(ci)
			if err != nil {
				rec.record(ci, fmt.Errorf("gpu: v1 chunk %d: %w", ci, err))
				return
			}
			if len(comp) > lanes.bucketCap {
				rec.record(ci, fmt.Errorf("gpu: v1 chunk %d overflows bucket: %d > %d", ci, len(comp), lanes.bucketCap))
				return
			}
			chunk, st := lanes.chunks[ci], &lanes.stats[ci]

			// --- timing model ---
			// Compute: the search loop dominated by byte comparisons,
			// plus the emission path.
			th.Work(st.Comparisons*CyclesPerCompare + int64(len(comp))*CyclesPerOutputByte)
			if opts.DisableSharedMemory {
				// Ablation: every comparison walks global memory. The
				// lane still issues the two accesses per comparison, and
				// on top of that each 32-byte group of window bytes is a
				// fresh transaction (lanes diverge, so nothing coalesces
				// across the warp) whose latency the launch model exposes.
				th.Work(st.Comparisons * 2)
				th.GlobalAccess(st.Comparisons/4+1, st.Comparisons*2)
			} else {
				// Window and lookahead live in shared memory. Lanes run
				// divergent serial loops, so accesses do not line up into
				// a warp-wide conflict pattern: degree 1, the cost of the
				// divergence itself is carried by SerializationV1.
				th.SharedAccess(st.Comparisons*2, 1)
			}
			// Input streaming: each lane reads its own chunk, 128-byte
			// segments of which never coalesce with other lanes'
			// (stride = ChunkSize >> TransactionBytes).
			th.GlobalAccess(int64((len(chunk)+cudasim.TransactionBytes-1)/cudasim.TransactionBytes), int64(len(chunk)))
			// Bucket write-back, equally scattered.
			th.GlobalAccess(int64((len(comp)+cudasim.TransactionBytes-1)/cudasim.TransactionBytes), int64(len(comp)))
		})
	})
	if err != nil {
		return nil, nil, err
	}
	if ferr := rec.error(); ferr != nil {
		return nil, nil, ferr
	}
	if err := opts.transferFault("d2h"); err != nil {
		return nil, nil, err
	}
	opts.addStats(lanes.stats)

	container, hostTime := assembleContainer(format.CodecCULZSSV1, cfg, opts.ChunkSize, data, lanes.streams)
	report := &Report{
		Launch: rep,
		H2D:    dev.TransferTime(len(data)),
		// The paper returns "partial full buckets" and copies back only
		// the filled prefixes plus the size list.
		D2H:         dev.TransferTime(totalLen(lanes.streams) + 4*nChunks),
		HostTime:    hostTime,
		InputBytes:  len(data),
		OutputBytes: len(container),
	}
	observeReport(opts.Obs, "culzss_v1", report)
	return container, report, nil
}

// v1Lanes is one V1 run's per-chunk work: each chunk's byte-aligned
// stream from the brute-force search, written into a pooled bucket of
// worst-case capacity, and its search counters. The kernel's lanes,
// CompressV1CPU and hybrid's CPU share all encode through it, so their
// streams agree by construction.
type v1Lanes struct {
	chunks    [][]byte
	cfg       lzss.Config
	bucketCap int
	streams   [][]byte
	buckets   []*[]byte
	stats     []lzss.SearchStats
}

// v1Buckets pools the lanes' chunk streams across runs.
var v1Buckets = sync.Pool{New: func() any { return new([]byte) }}

// newV1Lanes cuts data into opts' chunks for a V1 run.
func newV1Lanes(data []byte, opts *Options) *v1Lanes {
	chunks := format.SplitChunks(data, opts.ChunkSize)
	return &v1Lanes{
		chunks:    chunks,
		cfg:       opts.Config,
		bucketCap: lzss.MaxEncodedLenByteAligned(opts.ChunkSize),
		streams:   make([][]byte, len(chunks)),
		buckets:   make([]*[]byte, len(chunks)),
		stats:     make([]lzss.SearchStats, len(chunks)),
	}
}

// encode encodes chunk ci into its bucket and returns its stream.
func (l *v1Lanes) encode(ci int) ([]byte, error) {
	b := v1Buckets.Get().(*[]byte)
	if cap(*b) < l.bucketCap {
		*b = make([]byte, 0, l.bucketCap)
	}
	l.buckets[ci] = b
	comp, err := lzss.AppendEncodedByteAligned((*b)[:0], l.chunks[ci], l.cfg, lzss.SearchBrute, &l.stats[ci])
	if err != nil {
		return nil, err
	}
	*b, l.streams[ci] = comp, comp
	return comp, nil
}

// release returns the run's buckets to the pool once its container
// holds a copy of their streams. Chunks that never ran have none.
func (l *v1Lanes) release() {
	for _, b := range l.buckets {
		if b != nil {
			v1Buckets.Put(b)
		}
	}
}
