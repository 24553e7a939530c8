package gpu

import (
	"fmt"
	"sync"
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
	recs := make([]*v2Records, nChunks)
	defer releaseV2Records(recs)
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
		recs[b.Index] = getV2Records(len(chunk))
		scan := newV2Scan(&cfg, tpb, recs[b.Index], &statsPer[b.Index])
		defer scan.release()

		var staged []byte
		if !opts.DisableSharedMemory {
			staged = b.Shared(sharedPerBlock)
		}

		for tile := 0; tile < len(chunk); tile += tpb {
			// Stage [lo, hi) of the chunk: one coalesced block-wide read
			// (each thread loads consecutive bytes, §III.D's single
			// 128-byte transaction per 128 threads).
			lo, hi := scan.bounds(tile)
			region := chunk[lo:hi]
			if staged != nil {
				b.GlobalReadCoalesced(staged[:len(region)], gIn, chunkBase+lo)
				region = staged[:len(region)]
			}
			scan.stage(tile, region)

			b.Parallel(func(th *cudasim.ThreadCtx) {
				pos := tile + th.Tid
				if pos >= len(chunk) {
					return
				}
				charged := scan.lane(pos)
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
	opts.addStats(statsPer)

	// --- Host post-pass (§III.B.3) ---
	hostStart := time.Now()
	streams := make([][]byte, nChunks)
	for ci, chunk := range chunks {
		if streams[ci], err = recs[ci].encode(chunk, &cfg); err != nil {
			return nil, nil, fmt.Errorf("gpu: v2 chunk %d: %w", ci, err)
		}
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

// v2Records are one chunk's per-position match records, the device
// arrays the kernel writes and the host post-pass reads (three bytes a
// position), and the token stream the post-pass writes. They are pooled
// across launches. Every position of a chunk is written by its lane
// before the post-pass reads it, so reused records need no zeroing.
type v2Records struct {
	len    []uint16 // match length, below MinMatch for none
	dist   []uint8  // match distance - 1
	stream []byte
	// GPU-post's selection scratch (selectChunkPositions).
	jump     [2][]int32
	selected []bool
}

var v2RecordPool sync.Pool

// getV2Records returns records for an n-byte chunk from the pool.
func getV2Records(n int) *v2Records {
	r, _ := v2RecordPool.Get().(*v2Records)
	if r == nil {
		r = new(v2Records)
	}
	if cap(r.len) < n {
		r.len, r.dist = make([]uint16, n), make([]uint8, n)
	}
	r.len, r.dist = r.len[:n], r.dist[:n]
	return r
}

// releaseV2Records returns a launch's records to the pool once its
// container holds a copy of their streams. Chunks that never ran have
// none.
func releaseV2Records(recs []*v2Records) {
	for _, r := range recs {
		if r != nil {
			v2RecordPool.Put(r)
		}
	}
}

// encode is the serial host post-pass over the chunk's records
// (§III.B.3): the matching phase ran for every character, so the
// redundant searches are eliminated here. A greedy walk keeps a coded
// token where the recorded match is long enough and skips the positions
// it covers. It returns the byte-aligned stream, written into the
// records' pooled buffer and valid until they are released.
func (r *v2Records) encode(chunk []byte, cfg *lzss.Config) ([]byte, error) {
	w := lzss.NewByteAlignedWriter(cfg, r.stream[:0])
	for pos := 0; pos < len(chunk); {
		l := int(r.len[pos])
		if l < cfg.MinMatch {
			w.Literal(chunk[pos])
			pos++
			continue
		}
		if err := w.Match(lzss.Match{Distance: int(r.dist[pos]) + 1, Length: l}); err != nil {
			return nil, err
		}
		pos += l
	}
	r.stream = w.Bytes()
	return r.stream, nil
}

// v2Scan is one chunk's every-position window search (§III.B.2), cut into
// tiles of one lane per position. A tile is staged with the window before
// it and the lookahead after it, and each lane searches exactly the
// serial window: the cfg.Window bytes before its position, all inside
// the staged region. Matches may extend into the staged lookahead but
// never past the chunk. The device kernels and the host twin run their
// tiles through it, so their records and counters agree by construction.
type v2Scan struct {
	cfg    *lzss.Config
	lanes  int        // positions per tile: the block width
	rec    *v2Records // one per chunk position
	st     *lzss.SearchStats
	lo     int    // chunk offset of region[0]
	region []byte // the staged tile
	ix     lzss.TileIndex
}

// v2Scans pools scans with their tile indexes across blocks and launches.
var v2Scans = sync.Pool{New: func() any { return new(v2Scan) }}

// newV2Scan returns a pooled scan of the chunk rec covers, counting into st.
func newV2Scan(cfg *lzss.Config, lanes int, rec *v2Records, st *lzss.SearchStats) *v2Scan {
	s := v2Scans.Get().(*v2Scan)
	s.cfg, s.lanes, s.rec, s.st = cfg, lanes, rec, st
	return s
}

// release returns s to the pool without the launch's buffers.
func (s *v2Scan) release() {
	s.cfg, s.rec, s.st, s.region = nil, nil, nil, nil
	v2Scans.Put(s)
}

// bounds returns the chunk range [lo, hi) staged for the tile whose
// lanes start at chunk offset tile.
func (s *v2Scan) bounds(tile int) (lo, hi int) {
	return max(tile-s.cfg.Window, 0), min(tile+s.lanes+s.cfg.MaxMatch, len(s.rec.len))
}

// stage indexes a tile's staged bytes, chunk[bounds(tile)] or a copy of
// them, up to its last lane: every candidate a lane can visit.
func (s *v2Scan) stage(tile int, region []byte) {
	s.lo, s.region = max(tile-s.cfg.Window, 0), region
	s.ix.Reset(region, tile+s.lanes-s.lo)
}

// lane searches chunk position pos, writes its record and returns the
// comparisons its lockstep lane is charged.
//
// Cost model: the real V2 lanes scan the whole window in lockstep — "all
// the threads compare the same number of characters" (§III.B.2) — with
// no early exit. The functional search early-exits once a maximal match
// is found (the result is identical), so the charge is extrapolated to
// the uniform full scan: the measured comparisons scaled to all window
// offsets, bounded by the staging budget of one lane's scan.
func (s *v2Scan) lane(pos int) int64 {
	sPos := pos - s.lo
	before := *s.st
	m := s.ix.LongestMatch(s.region, sPos, sPos-s.cfg.Window, s.cfg, s.st)
	s.rec.len[pos] = uint16(m.Length)
	s.rec.dist[pos] = uint8(max(m.Distance-1, 0))

	window := int64(s.cfg.Window)
	cmps := s.st.Comparisons - before.Comparisons
	offs := s.st.Offsets - before.Offsets
	charged := cmps
	if offs > 0 && offs < window && sPos >= s.cfg.Window {
		charged = cmps * window / offs
	}
	// The staging budget bounds one lane's lockstep scan regardless of
	// how far individual extensions could run.
	return min(charged, window*uniformScanCap)
}
