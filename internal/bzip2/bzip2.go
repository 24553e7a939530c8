// Package bzip2 is the from-scratch BZIP2-style baseline the paper
// compares against (§IV): the full pipeline of stage-1 run-length
// encoding, Burrows–Wheeler transform, move-to-front, zero-run encoding
// and canonical Huffman coding with multiple tables and selectors — plus
// the complete inverse pipeline.
//
// It intentionally reproduces the algorithmic structure (and therefore the
// performance character) of the real program: block-at-a-time operation,
// a depth-limited block sort with a fallback that dominates on repetitive
// input, and group-of-50 Huffman table selection. The on-disk format is
// this repository's container (internal/format), not the .bz2 interchange
// format.
package bzip2

import (
	"fmt"

	"culzss/internal/bitio"
	"culzss/internal/bzip2/bwt"
	"culzss/internal/bzip2/huffman"
	"culzss/internal/format"
)

// DefaultBlockSize matches bzip2 -9: 900 kB blocks.
const DefaultBlockSize = 900 * 1000

// Options configures the compressor.
type Options struct {
	// BlockSize is the uncompressed bytes per independently-compressed
	// block; 0 means DefaultBlockSize (bzip2 -9).
	BlockSize int
	// Workers bounds concurrent block compression. The paper benchmarks
	// the stock single-threaded program, so the harness passes 1; 0 means
	// GOMAXPROCS (the PBZIP2 mode).
	Workers int
	// SortStats, when non-nil, accumulates block-sort statistics summed
	// over blocks (main-sort compares, fallback volume).
	SortStats *bwt.Stats
}

// Compress compresses data into a CULZSS container with the bzip2 codec.
func Compress(data []byte, opts Options) ([]byte, error) {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	chunks := format.SplitChunks(data, opts.BlockSize)
	streams := make([][]byte, len(chunks))
	statsPer := make([]bwt.Stats, len(chunks))
	// compressBlock cannot fail, so neither can the pool.
	_ = format.RunChunks(0, len(chunks), opts.Workers, func(i int) error {
		streams[i] = compressBlock(chunks[i], &statsPer[i])
		return nil
	})

	if opts.SortStats != nil {
		for i := range statsPer {
			opts.SortStats.MainCompares += statsPer[i].MainCompares
			opts.SortStats.FallbackElems += statsPer[i].FallbackElems
			opts.SortStats.FallbackRounds += statsPer[i].FallbackRounds
		}
	}
	return format.Assemble(&format.Header{Codec: format.CodecBZip2, ChunkSize: opts.BlockSize}, data, streams), nil
}

// Decompress expands a bzip2 container, verifying the checksum.
func Decompress(container []byte, workers int) ([]byte, error) {
	h, off, err := format.ParseHeader(container)
	if err != nil {
		return nil, err
	}
	if h.Codec != format.CodecBZip2 {
		return nil, fmt.Errorf("bzip2: container holds %v", h.Codec)
	}
	payload := container[off:]
	bounds := h.ChunkBounds()

	// The run-length stages give no useful bound on a block's output per
	// payload byte, so the header's OriginalLen is not trusted to size
	// anything: each block decodes into its own buffer, and the output
	// is allocated only once every block has produced exactly its share.
	blocks := make([][]byte, len(bounds))
	if err := format.RunChunks(0, len(bounds), workers, func(i int) error {
		b := bounds[i]
		dec, err := decompressBlock(payload[b.CompOff : b.CompOff+b.CompLen])
		if err != nil {
			return fmt.Errorf("bzip2: block %d: %w: %v", b.Index, format.ErrCorrupt, err)
		}
		if len(dec) != b.UncompLen {
			return fmt.Errorf("bzip2: block %d: %w: expands to %d bytes, want %d",
				b.Index, format.ErrCorrupt, len(dec), b.UncompLen)
		}
		blocks[i] = dec
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]byte, h.OriginalLen)
	for i, b := range bounds {
		copy(out[b.UncompOff:], blocks[i])
	}
	if format.Checksum32(out) != h.Checksum {
		return nil, format.ErrChecksum
	}
	return out, nil
}

// nTablesFor mirrors bzip2's table-count heuristic on the group count.
func nTablesFor(nSyms int) int {
	switch {
	case nSyms < 200:
		return 2
	case nSyms < 600:
		return 3
	case nSyms < 1200:
		return 4
	case nSyms < 2400:
		return 5
	default:
		return maxTables
	}
}

// compressBlock runs the full forward pipeline over one block.
func compressBlock(chunk []byte, st *bwt.Stats) []byte {
	rle1 := rle1Encode(chunk)
	last, primary := bwt.Transform(rle1, st)
	mtf := mtfEncode(last)
	syms := rle2Encode(mtf)

	nGroups := (len(syms) + groupSize - 1) / groupSize
	nTables := nTablesFor(len(syms))
	if nTables > nGroups {
		nTables = nGroups
	}
	if nTables < 1 {
		nTables = 1
	}

	// Per-group frequency tables.
	groupFreq := make([][]int64, nGroups)
	for g := range groupFreq {
		f := make([]int64, alphaSize)
		lo, hi := g*groupSize, (g+1)*groupSize
		if hi > len(syms) {
			hi = len(syms)
		}
		for _, s := range syms[lo:hi] {
			f[s]++
		}
		groupFreq[g] = f
	}

	// Iterative table refinement (bzip2 does N_ITERS=4): start from a
	// round-robin assignment, then alternate (a) rebuild each table from
	// its groups' frequencies, (b) reassign each group to its cheapest
	// table.
	selectors := make([]int, nGroups)
	for g := range selectors {
		selectors[g] = g % nTables
	}
	var lengths [][]uint8
	for iter := 0; iter < 4; iter++ {
		freqs := make([][]int64, nTables)
		for t := range freqs {
			freqs[t] = make([]int64, alphaSize)
		}
		for g, t := range selectors {
			for s, f := range groupFreq[g] {
				freqs[t][s] += f
			}
		}
		lengths = make([][]uint8, nTables)
		for t := range lengths {
			// Zero frequencies become one so every table covers the full
			// alphabet (as hbMakeCodeLengths does).
			f := freqs[t]
			padded := make([]int64, alphaSize)
			for s := range padded {
				if f[s] > 0 {
					padded[s] = f[s]
				} else {
					padded[s] = 1
				}
			}
			lengths[t] = huffman.BuildLengths(padded)
		}
		for g := range selectors {
			best, bestCost := 0, int64(1)<<62
			for t := 0; t < nTables; t++ {
				var cost int64
				for s, f := range groupFreq[g] {
					if f > 0 {
						cost += f * int64(lengths[t][s])
					}
				}
				if cost < bestCost {
					best, bestCost = t, cost
				}
			}
			selectors[g] = best
		}
	}

	encoders := make([]*huffman.Encoder, nTables)
	for t := range encoders {
		enc, err := huffman.NewEncoder(lengths[t])
		if err != nil {
			// Lengths come from BuildLengths over positive frequencies;
			// failure here is a programming error.
			panic(fmt.Sprintf("bzip2: internal: %v", err))
		}
		encoders[t] = enc
	}

	// Serialise the block.
	w := bitio.NewWriter(len(chunk)/3 + 256)
	w.WriteBits(uint64(len(rle1)), 32)
	w.WriteBits(uint64(primary), 32)
	w.WriteBits(uint64(nTables), 8)
	w.WriteBits(uint64(nGroups), 32)
	for _, sel := range selectors {
		w.WriteBits(uint64(sel), selectorBits)
	}
	for t := 0; t < nTables; t++ {
		for s := 0; s < alphaSize; s++ {
			w.WriteBits(uint64(lengths[t][s]), 5)
		}
	}
	for g := 0; g < nGroups; g++ {
		enc := encoders[selectors[g]]
		lo, hi := g*groupSize, (g+1)*groupSize
		if hi > len(syms) {
			hi = len(syms)
		}
		for _, s := range syms[lo:hi] {
			if err := enc.Encode(w, int(s)); err != nil {
				panic(fmt.Sprintf("bzip2: internal: %v", err))
			}
		}
	}
	return w.Bytes()
}

// decompressBlock inverts compressBlock.
func decompressBlock(stream []byte) ([]byte, error) {
	r := bitio.NewReader(stream)
	rle1Len, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	primary, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	nTables64, err := r.ReadBits(8)
	if err != nil {
		return nil, err
	}
	nGroups64, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	nTables, nGroups := int(nTables64), int(nGroups64)
	if nTables < 1 || nTables > maxTables {
		return nil, fmt.Errorf("table count %d out of range", nTables)
	}
	if nGroups < 0 || nGroups > len(stream) {
		return nil, fmt.Errorf("group count %d implausible", nGroups)
	}
	selectors := make([]int, nGroups)
	for g := range selectors {
		v, err := r.ReadBits(selectorBits)
		if err != nil {
			return nil, err
		}
		if int(v) >= nTables {
			return nil, fmt.Errorf("selector %d out of range", v)
		}
		selectors[g] = int(v)
	}
	decoders := make([]*huffman.Decoder, nTables)
	for t := range decoders {
		lengths := make([]uint8, alphaSize)
		for s := range lengths {
			v, err := r.ReadBits(5)
			if err != nil {
				return nil, err
			}
			lengths[s] = uint8(v)
		}
		dec, err := huffman.NewDecoder(lengths)
		if err != nil {
			return nil, err
		}
		decoders[t] = dec
	}

	var syms []uint16
	done := false
	for g := 0; g < nGroups && !done; g++ {
		dec := decoders[selectors[g]]
		for k := 0; k < groupSize; k++ {
			s, err := dec.Decode(r)
			if err != nil {
				return nil, err
			}
			syms = append(syms, uint16(s))
			if s == symEOB {
				done = true
				break
			}
		}
	}
	if !done {
		return nil, fmt.Errorf("symbol stream missing EOB")
	}

	mtf, err := rle2Decode(syms)
	if err != nil {
		return nil, err
	}
	last := mtfDecode(mtf)
	if len(last) != int(rle1Len) {
		return nil, fmt.Errorf("BWT length %d, header says %d", len(last), rle1Len)
	}
	if len(last) == 0 {
		return []byte{}, nil
	}
	if int(primary) >= len(last) {
		return nil, fmt.Errorf("primary index %d out of range", primary)
	}
	rle1 := bwt.Inverse(last, int(primary))
	return rle1Decode(rle1)
}
