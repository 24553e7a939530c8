package gpu

import (
	"fmt"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/format"
	"culzss/internal/lzss"
)

// CompressV2 runs the CULZSS Version 2 kernel: one block per 4 KiB chunk,
// one thread per lookahead position, with the redundant all-positions
// window search and the serial host post-pass that selects the surviving
// tokens and generates the encoding flags (paper §III.B.2–3).
func CompressV2(data []byte, opts Options) ([]byte, *Report, error) {
	opts.fill(format.CodecCULZSSV2)
	if err := opts.ctxErr(); err != nil {
		return nil, nil, err
	}
	dev := opts.device()
	cfg := opts.Config
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Window > 256 || cfg.MaxMatch-cfg.MinMatch > 255 {
		return nil, nil, fmt.Errorf("gpu: config %+v does not fit the 16-bit token", cfg)
	}

	chunks := format.SplitChunks(data, opts.ChunkSize)
	nChunks := len(chunks)
	tpb := opts.ThreadsPerBlock
	blocks := nChunks
	if blocks == 0 {
		blocks = 1
	}

	// Shared staging per tile: window + tile + lookahead extension
	// (§III.B.2: "we extended both search window and uncoded buffers with
	// the expected data for each thread").
	sharedPerBlock := cfg.Window + tpb + cfg.MaxMatch
	if opts.DisableSharedMemory {
		sharedPerBlock = 0
	}

	// The bank-conflict degree of the window-scan access pattern. With
	// the paper's four-character stagger each lane starts its linear scan
	// four bytes apart (stride 4); without it, lanes walk byte-adjacent
	// addresses (stride 1). Only legacy bank semantics distinguish them.
	stride := 4
	if opts.DisableBankSkew {
		stride = 1
	}
	conflictDegree := dev.BankConflictDegree(stride)

	gIn := cudasim.NewGlobal("input", data)
	// Per-position match records, device-resident, written coalesced and
	// copied back for the host pass (two byte arrays: length, distance).
	matchLen := make([]uint16, len(data))
	matchDist := make([]uint8, len(data))
	statsPer := make([]lzss.SearchStats, nChunks)

	if err := opts.transferFault("h2d"); err != nil {
		return nil, nil, err
	}
	rep, err := dev.LaunchPhased(cudasim.LaunchConfig{
		Kernel:          "culzss_v2",
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
		st := &statsPer[b.Index]

		var staged []byte
		if !opts.DisableSharedMemory {
			staged = b.Shared(sharedPerBlock)
		}

		for tile := 0; tile < len(chunk); tile += tpb {
			lo := tile - cfg.Window
			if lo < 0 {
				lo = 0
			}
			hi := tile + tpb + cfg.MaxMatch
			if hi > len(chunk) {
				hi = len(chunk)
			}
			// Stage [lo, hi) of the chunk: one coalesced block-wide read
			// (each thread loads consecutive bytes, §III.D's single
			// 128-byte transaction per 128 threads).
			region := chunk[lo:hi]
			if staged != nil {
				b.GlobalReadCoalesced(staged[:len(region)], gIn, chunkBase+lo)
				region = staged[:len(region)]
			}

			b.Parallel(func(th *cudasim.ThreadCtx) {
				pos := tile + th.Tid
				if pos >= len(chunk) {
					return
				}
				sPos := pos - lo
				before := *st
				// Each thread sees exactly the serial window: the
				// cfg.Window bytes before its position, all inside the
				// staged region. Matches may extend into the staged
				// lookahead extension but never past the chunk.
				m := lzss.LongestMatch(region, sPos, sPos-cfg.Window, &cfg, st)
				matchLen[chunkBase+pos] = uint16(m.Length)
				matchDist[chunkBase+pos] = uint8(max(m.Distance-1, 0))

				// Cost model: the real V2 lanes scan the whole window in
				// lockstep — "all the threads compare the same number of
				// characters" (§III.B.2) — with no early exit. The
				// functional search above early-exits once a maximal
				// match is found (the result is identical), so the charge
				// is extrapolated to the uniform full scan: the measured
				// comparisons scaled to all window offsets, bounded by
				// the staging budget of one lane's scan.
				cmps := st.Comparisons - before.Comparisons
				offs := st.Offsets - before.Offsets
				charged := cmps
				if offs > 0 && offs < int64(cfg.Window) && sPos >= cfg.Window {
					charged = cmps * int64(cfg.Window) / offs
				}
				// The staging budget bounds one lane's lockstep scan
				// regardless of how far individual extensions could run.
				if cap := int64(cfg.Window) * uniformScanCap; charged > cap {
					charged = cap
				}
				th.Work(charged * CyclesPerCompare)
				if opts.DisableSharedMemory {
					// Ablation: un-staged searches issue from global.
					th.Work(charged * 2)
					th.GlobalAccess(charged/4+1, charged*2)
				} else {
					th.SharedAccess(charged*2, conflictDegree)
				}
			})

			// Write the tile's match records back, coalesced: two bytes
			// per position across consecutive addresses.
			n := tpb
			if tile+n > len(chunk) {
				n = len(chunk) - tile
			}
			b.Parallel(func(th *cudasim.ThreadCtx) {
				if th.Tid == 0 {
					th.GlobalAccess(cudasim.CoalescedTransactions(chunkBase+tile, 1, 3, n), int64(3*n))
				}
			})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if err := opts.transferFault("d2h"); err != nil {
		return nil, nil, err
	}
	if opts.Stats != nil {
		for i := range statsPer {
			opts.Stats.Add(statsPer[i])
		}
	}

	// --- Host post-pass (§III.B.3) ---
	// The matching phase ran for every character, so the redundant
	// searches are eliminated here: a serial greedy walk keeps a coded
	// token where the recorded match is long enough, skips the positions
	// it covers, and generates the flags.
	hostStart := time.Now()
	streams := make([][]byte, nChunks)
	for ci, chunk := range chunks {
		chunkBase := ci * opts.ChunkSize
		w := lzss.NewByteAlignedWriter(&cfg, len(chunk)/2+16)
		for pos := 0; pos < len(chunk); {
			l := int(matchLen[chunkBase+pos])
			if l >= cfg.MinMatch {
				if err := w.Match(lzss.Match{
					Distance: int(matchDist[chunkBase+pos]) + 1,
					Length:   l,
				}); err != nil {
					return nil, nil, fmt.Errorf("gpu: v2 chunk %d: %w", ci, err)
				}
				pos += l
			} else {
				w.Literal(chunk[pos])
				pos++
			}
		}
		streams[ci] = w.Bytes()
	}
	postTime := time.Since(hostStart)

	container, concatTime := assembleContainer(format.CodecCULZSSV2, cfg, opts.ChunkSize, data, streams)
	report := &Report{
		Launch: rep,
		H2D:    dev.TransferTime(len(data)),
		// D2H copies the per-position match records (3 bytes each).
		D2H:            dev.TransferTime(3 * len(data)),
		HostTime:       postTime + concatTime,
		HostOverlapped: opts.OverlapHost,
		InputBytes:     len(data),
		OutputBytes:    len(container),
	}
	observeReport(opts.Obs, "culzss_v2", report)
	return container, report, nil
}
