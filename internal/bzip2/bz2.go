package bzip2

import (
	"fmt"
	"io"

	"culzss/internal/bitio"
	"culzss/internal/bzip2/bwt"
)

// The .bz2 format's choices for the shared stages, where they differ
// from the container's.
const (
	bz2MaxRun     = 4 + 251 // a run unit's count byte is 0..251
	bz2MaxCodeLen = 17      // encoder choice; the format allows up to 20
)

// EncodeBZ2 compresses data into a complete .bz2 stream, the interchange
// format of the bzip2 program the paper benchmarks against, written to w.
// level selects the block size (level * 100_000 bytes), 1..9. The blocks
// run through the container codec's stages, so the standard library's
// compress/bzip2 reader, an independent decoder, checks every encode
// stage of the baseline. Reading .bz2 is left to that reader.
func EncodeBZ2(w io.Writer, data []byte, level int) error {
	if level < 1 || level > 9 {
		return fmt.Errorf("bzip2: level %d out of 1..9", level)
	}
	bw := bitio.NewWriter(len(data)/2 + 64)
	// Stream header: "BZh" + level digit.
	bw.WriteBits(uint64('B'), 8)
	bw.WriteBits(uint64('Z'), 8)
	bw.WriteBits(uint64('h'), 8)
	bw.WriteBits(uint64('0'+level), 8)

	blockSize := level * 100_000
	var streamCRC uint32
	for off := 0; off < len(data); {
		// The format bounds a block's stage-1 output, which runs of
		// exactly four bytes make longer than its input, so a block that
		// outgrows the bound gives up input until it fits.
		end := min(off+blockSize, len(data))
		rle1 := rle1Encode(data[off:end], bz2MaxRun)
		for len(rle1) > blockSize {
			end -= len(rle1) - blockSize
			rle1 = rle1Encode(data[off:end], bz2MaxRun)
		}
		blockCRC := encodeBZ2Block(bw, data[off:end], rle1)
		streamCRC = (streamCRC<<1 | streamCRC>>31) ^ blockCRC
		off = end
	}

	// Stream footer: sqrt(pi) magic + combined CRC.
	bw.WriteBits(0x177245385090, 48)
	bw.WriteBits(uint64(streamCRC), 32)
	if _, err := w.Write(bw.Bytes()); err != nil {
		return fmt.Errorf("bzip2: %w", err)
	}
	return nil
}

// encodeBZ2Block writes one non-empty block, whose stage-1 output is
// rle1, and returns its CRC.
func encodeBZ2Block(bw *bitio.Writer, block, rle1 []byte) uint32 {
	blockCRC := crc32bz(block)
	last, primary := bwt.Transform(rle1, nil)

	// The MTF alphabet is the used bytes, ascending; the symbol alphabet
	// adds RUNA and RUNB below it and EOB above.
	var used [256]bool
	for _, c := range last {
		used[c] = true
	}
	var alphabet []byte
	for v, u := range used {
		if u {
			alphabet = append(alphabet, byte(v))
		}
	}
	// At most one symbol per stage-1 byte plus EOB: 900,001 symbols need
	// 18,001 selectors, within the format's 18,002.
	syms := rle2Encode(mtfEncode(last, alphabet), uint16(len(alphabet)+1))
	lengths, selectors := refineTables(syms, len(alphabet)+2, nTablesFor(len(syms)), bz2MaxCodeLen)

	// --- serialise ---
	bw.WriteBits(0x314159265359, 48) // block magic (pi)
	bw.WriteBits(uint64(blockCRC), 32)
	bw.WriteBit(0) // randomised: deprecated, always 0
	bw.WriteBits(uint64(primary), 24)

	// Symbol-used maps: 16 sector bits, then 16 bits per used sector.
	var sectors uint16
	for s := 0; s < 16; s++ {
		for b := 0; b < 16; b++ {
			if used[s*16+b] {
				sectors |= 1 << (15 - s)
			}
		}
	}
	bw.WriteBits(uint64(sectors), 16)
	for s := 0; s < 16; s++ {
		if sectors&(1<<(15-s)) == 0 {
			continue
		}
		var m uint16
		for b := 0; b < 16; b++ {
			if used[s*16+b] {
				m |= 1 << (15 - b)
			}
		}
		bw.WriteBits(uint64(m), 16)
	}

	bw.WriteBits(uint64(len(lengths)), 3)
	bw.WriteBits(uint64(len(selectors)), 15)

	// Selectors, MTF-coded over table indices, unary-written.
	mtfTables := make([]int, len(lengths))
	for i := range mtfTables {
		mtfTables[i] = i
	}
	for _, sel := range selectors {
		j := 0
		for mtfTables[j] != sel {
			j++
		}
		copy(mtfTables[1:j+1], mtfTables[:j])
		mtfTables[0] = sel
		for k := 0; k < j; k++ {
			bw.WriteBit(1)
		}
		bw.WriteBit(0)
	}

	// Delta-coded code lengths per table.
	for _, table := range lengths {
		cur := int(table[0])
		bw.WriteBits(uint64(cur), 5)
		for _, l := range table {
			target := int(l)
			for cur < target {
				bw.WriteBit(1)
				bw.WriteBit(0)
				cur++
			}
			for cur > target {
				bw.WriteBit(1)
				bw.WriteBit(1)
				cur--
			}
			bw.WriteBit(0)
		}
	}

	writeSymbols(bw, syms, lengths, selectors)
	return blockCRC
}

// crc32bz is bzip2's CRC-32: polynomial 0x04c11db7, MSB-first (not
// reflected), initial value all-ones, final complement.
func crc32bz(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b) << 24
		for k := 0; k < 8; k++ {
			if crc&0x80000000 != 0 {
				crc = crc<<1 ^ 0x04c11db7
			} else {
				crc <<= 1
			}
		}
	}
	return ^crc
}
