package gpu

import (
	"fmt"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/format"
	"culzss/internal/lzss"
)

// The paper's final §VII item: "Version 2 has additional encoding work
// left on CPU. These can be ported to GPU or hidden by overlapping
// computation".
//
// The host post-pass walks the per-position match records greedily:
// from position 0, take the recorded match (jump its length) or a
// literal (jump 1). That walk is sequential — but it is a traversal of a
// *functional graph*: every position i has exactly one successor
//
//	next(i) = i + max(1, matchLen(i) if >= MinMatch)
//
// and the token stream is exactly the set of positions reachable from 0.
// Reachability in a functional graph parallelises by pointer doubling:
// build jump tables J_k(i) = next^(2^k)(i) with log n doubling rounds
// (each a perfectly parallel pass), then grow the reachable set
// R <- R ∪ J_k(R) round by round; after round k, R holds every
// next^t(0) with t < 2^(k+1). All rounds are data-parallel scatters —
// ideal SIMT work — at the price of O(n log n) total operations versus
// the host's O(n).
//
// CompressV2GPUPost runs the V2 pipeline with this kernel doing the
// token selection; the host then only serialises the pre-selected
// tokens. Output is byte-identical to CompressV2.

// selectChunkPositions marks, for one chunk, every position the greedy
// walk visits, using the pointer-doubling rounds described above.
// rec.len holds the recorded match length per position (0/1 for none).
// The returned slice has selected[i] == true iff i starts a token; it
// and the jump tables are rec's pooled scratch.
func selectChunkPositions(b *cudasim.BlockCtx, rec *v2Records, minMatch int) []bool {
	matchLen := rec.len
	n := len(matchLen)
	if cap(rec.selected) < n+1 {
		rec.selected = make([]bool, n+1)
		rec.jump = [2][]int32{make([]int32, n+1), make([]int32, n+1)}
	}
	selected := rec.selected[:n+1]
	clear(selected)
	// next holds each position's successor, position n being the
	// terminal node; the doubling rounds ping-pong between it and spare.
	next, spare := rec.jump[0][:n+1], rec.jump[1][:n+1]

	// Phase 1: build next() — one parallel pass.
	b.Parallel(func(th *cudasim.ThreadCtx) {
		for i := th.Tid; i < n; i += b.NumThreads {
			step := 1
			if l := int(matchLen[i]); l >= minMatch {
				step = l
			}
			j := i + step
			if j > n {
				j = n
			}
			next[i] = int32(j)
			th.Work(4)
		}
		if th.Tid == 0 {
			next[n] = int32(n) // terminal self-loop
		}
	})
	// The frontier scatter and the doubling step alternate; each is a
	// parallel pass over all positions.
	jump := next
	selected[0] = true
	for span := 1; span < n+1; span *= 2 {
		// R <- R ∪ jump(R): parallel scatter over the whole array.
		b.Parallel(func(th *cudasim.ThreadCtx) {
			for i := th.Tid; i <= n; i += b.NumThreads {
				if selected[i] {
					selected[jump[i]] = true
				}
				th.Work(3)
				th.SharedAccess(2, 1)
			}
		})
		// jump <- jump ∘ jump (pointer doubling).
		b.Parallel(func(th *cudasim.ThreadCtx) {
			for i := th.Tid; i <= n; i += b.NumThreads {
				spare[i] = jump[jump[i]]
				th.Work(3)
				th.SharedAccess(2, 1)
			}
		})
		jump, spare = spare, jump
	}
	return selected[:n]
}

// CompressV2GPUPost is CompressV2 with the token selection executed as a
// second GPU kernel (§VII) instead of the serial host walk. The
// container is byte-identical to CompressV2's; the report's HostTime
// shrinks to the serialisation step and the kernel time grows by the
// selection rounds.
func CompressV2GPUPost(data []byte, opts Options) ([]byte, *Report, error) {
	// First run the standard V2 matching kernel by reusing CompressV2's
	// machinery up to the match records. To keep the implementations
	// honest and separate, the matching kernel runs again here with the
	// selection kernel appended per block.
	if err := opts.enter(format.CodecCULZSSV2); err != nil {
		return nil, nil, err
	}
	dev := opts.device()
	cfg := opts.Config

	chunks := format.SplitChunks(data, opts.ChunkSize)
	nChunks := len(chunks)
	tpb := opts.ThreadsPerBlock
	blocks := nChunks
	if blocks == 0 {
		blocks = 1
	}
	sharedPerBlock := cfg.Window + tpb + cfg.MaxMatch

	recs := make([]*v2Records, nChunks)
	defer releaseV2Records(recs)
	selectedPer := make([][]bool, nChunks)
	statsPer := make([]lzss.SearchStats, nChunks)

	gIn := cudasim.NewGlobal("input", data)
	if err := opts.transferFault("h2d"); err != nil {
		return nil, nil, err
	}
	rep, err := dev.LaunchPhased(cudasim.LaunchConfig{
		Kernel:          "culzss_v2_gpupost",
		Blocks:          blocks,
		ThreadsPerBlock: tpb,
		SharedPerBlock:  sharedPerBlock,
		Serialization:   SerializationV2,
		HostWorkers:     opts.HostWorkers,
		Context:         opts.Context,
	}, func(b *cudasim.BlockCtx) {
		if b.Index >= nChunks {
			return
		}
		chunk := chunks[b.Index]
		chunkBase := b.Index * opts.ChunkSize
		recs[b.Index] = getV2Records(len(chunk))
		scan := newV2Scan(&cfg, tpb, recs[b.Index], &statsPer[b.Index])
		defer scan.release()
		staged := b.Shared(sharedPerBlock)

		for tile := 0; tile < len(chunk); tile += tpb {
			lo, hi := scan.bounds(tile)
			region := staged[:hi-lo]
			b.GlobalReadCoalesced(region, gIn, chunkBase+lo)
			scan.stage(tile, region)
			b.Parallel(func(th *cudasim.ThreadCtx) {
				pos := tile + th.Tid
				if pos >= len(chunk) {
					return
				}
				charged := scan.lane(pos)
				th.Work(charged * CyclesPerCompare)
				th.SharedAccess(charged*2, 1)
			})
		}

		// §VII: the selection, on the GPU.
		selectedPer[b.Index] = selectChunkPositions(b, recs[b.Index], cfg.MinMatch)
	})
	if err != nil {
		return nil, nil, err
	}
	if err := opts.transferFault("d2h"); err != nil {
		return nil, nil, err
	}
	opts.addStats(statsPer)

	// Host: serialise the pre-selected tokens (no decision-making left).
	hostStart := time.Now()
	streams := make([][]byte, nChunks)
	for ci, chunk := range chunks {
		sel, rec := selectedPer[ci], recs[ci]
		w := lzss.NewByteAlignedWriter(&cfg, rec.stream[:0])
		for pos := 0; pos < len(chunk); pos++ {
			if !sel[pos] {
				continue
			}
			if l := int(rec.len[pos]); l >= cfg.MinMatch {
				if err := w.Match(lzss.Match{Distance: int(rec.dist[pos]) + 1, Length: l}); err != nil {
					return nil, nil, fmt.Errorf("gpu: gpupost chunk %d: %w", ci, err)
				}
			} else {
				w.Literal(chunk[pos])
			}
		}
		rec.stream = w.Bytes()
		streams[ci] = rec.stream
	}
	postTime := time.Since(hostStart)

	container, concatTime := assembleContainer(format.CodecCULZSSV2, cfg, opts.ChunkSize, data, streams)
	report := &Report{
		Launch:         rep,
		H2D:            dev.TransferTime(len(data)),
		D2H:            dev.TransferTime(len(data)/8 + 3*totalLen(streams)),
		HostTime:       postTime + concatTime,
		HostOverlapped: opts.OverlapHost,
		InputBytes:     len(data),
		OutputBytes:    len(container),
	}
	observeReport(opts.Obs, "culzss_v2_gpupost", report)
	return container, report, nil
}
