package lzss

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
)

// windowIndex is the sliding form of LongestMatch for a greedy encoder,
// which searches only where a token starts. It is kept current one byte
// at a time as the window slides, so a search costs what its two-byte
// candidates cost instead of a pass over the window. It returns the same
// Match and moves SearchStats by the same amounts as LongestMatch.
//
// The identity it rests on: the byte loop's Comparisons is the offsets
// visited plus Σ l over the first-byte candidates, l being a candidate's
// match length, and that sum is the number of first-byte candidates plus
// Σ (l-1) over the candidates whose first two bytes match.
//
//   - count holds the number of each byte value in the window, which
//     gives the first term without visiting a candidate.
//   - A hash chain over each position's bigram lists the two-byte
//     candidates, closest first, for the second term. Candidates that
//     match one byte are never visited.
//
// Chain entries are positions plus base, a generation that grows by each
// input's length, so a pooled index never clears head: an entry below
// base belongs to an earlier input and ends the walk. head is cleared only
// when the generations would overflow an int32.
//
// Contract: searches come at strictly increasing positions of the input
// given to reset, each against the window [pos-Window, pos), which is how
// matcher.find drives it. A windowIndex is not safe for concurrent use.
type windowIndex struct {
	cfg  *Config
	data []byte
	base int32 // chain entry of data[0]
	next int   // first position not yet in count and the chains
	// count[v] is the number of bytes v in [next-Window, next).
	count [256]int32
	// head[h] is the last position whose bigram hashes to h, plus base.
	head [1 << bigramHashBits]int32
	// prev[p&mask] is the chain entry before position p's. A walk never
	// follows a link from below the window, so a ring of at least Window
	// entries holds every live link.
	prev []int32
	mask int
}

const bigramHashBits = 12

// bigramHash maps the two bytes a, b to a head slot.
func bigramHash(a, b byte) uint32 {
	return (uint32(a)<<8 | uint32(b)) * 2654435761 >> (32 - bigramHashBits)
}

// windowIndexes recycles the indexes of the byte-aligned greedy encoders:
// every V1 lane encodes one chunk through one.
var windowIndexes = sync.Pool{New: func() any { return new(windowIndex) }}

// reset points the index at a new input, searched under cfg.
func (ix *windowIndex) reset(cfg *Config, data []byte) {
	base := int64(ix.base) + int64(ix.next)
	if base == 0 || base+int64(len(data)) > math.MaxInt32 {
		// A fresh index, or the generations would wrap: every entry
		// in head must lie below the new base.
		clear(ix.head[:])
		base = 1
	}
	ix.cfg, ix.data, ix.base, ix.next = cfg, data, int32(base), 0
	clear(ix.count[:])
	if ring := 1 << bits.Len(uint(cfg.Window-1)); ring > len(ix.prev) {
		ix.prev = make([]int32, ring)
	}
	ix.mask = len(ix.prev) - 1
}

// advance adds the positions up to pos to count and the chains, and
// drops from count the bytes that leave the window. pos+1 < len(data).
func (ix *windowIndex) advance(pos int) {
	data, w := ix.data[:pos+1], ix.cfg.Window
	prev, mask, base := ix.prev, ix.mask, ix.base
	count, head := &ix.count, &ix.head
	p := ix.next
	for ; p < min(pos, w); p++ {
		in := data[p]
		count[in]++
		h := bigramHash(in, data[p+1])
		prev[p&mask] = head[h]
		head[h] = base + int32(p)
	}
	for ; p < pos; p++ {
		in := data[p]
		if out := data[p-w]; in != out {
			// Equal bytes cancel; on a run, updating both would chain
			// each increment on the previous store.
			count[in]++
			count[out]--
		}
		h := bigramHash(in, data[p+1])
		prev[p&mask] = head[h]
		head[h] = base + int32(p)
	}
	ix.next = pos
}

// longestMatch is LongestMatch(data, pos, pos-Window, cfg, stats) over the
// input given to reset.
func (ix *windowIndex) longestMatch(pos int, stats *SearchStats) Match {
	data, cfg := ix.data, ix.cfg
	maxLen := min(cfg.MaxMatch, len(data)-pos)
	if stats != nil {
		stats.Positions++
	}
	var best Match
	if maxLen < cfg.MinMatch || pos == 0 {
		return best
	}
	ix.advance(pos)
	winStart := max(pos-cfg.Window, 0)
	first, second := data[pos], data[pos+1]
	var head uint64
	haveHead := pos+8 <= len(data)
	if haveHead {
		head = binary.LittleEndian.Uint64(data[pos:])
	}
	lowest := winStart // lowest candidate start visited
	var ext int64      // Σ (l-1) over the two-byte candidates visited
	for c, lo := ix.head[bigramHash(first, second)], ix.base+int32(winStart); c >= lo; c = ix.prev[int(c-ix.base)&ix.mask] {
		start := int(c - ix.base)
		if data[start] != first || data[start+1] != second {
			continue // another bigram in the same slot
		}
		var l int
		if !haveHead {
			l = extend(data, start, pos, 2, maxLen)
		} else if x := binary.LittleEndian.Uint64(data[start:]) ^ head; x != 0 {
			l = min(bits.TrailingZeros64(x)>>3, maxLen)
		} else {
			l = extend(data, start, pos, 8, maxLen)
		}
		ext += int64(l - 1)
		if l > best.Length {
			best = Match{Distance: pos - start, Length: l}
			if l == maxLen {
				lowest = start
				break
			}
		}
	}
	if stats != nil {
		// The first-byte candidates the scan visited: all of the window's
		// unless it stopped early at lowest. Count the shorter side of
		// lowest.
		ones := int(ix.count[first])
		if lowest-winStart >= pos-lowest {
			ones = countByte(data[lowest:pos], first)
		} else if lowest > winStart {
			ones -= countByte(data[winStart:lowest], first)
		}
		offs := int64(pos - lowest)
		stats.Offsets += offs
		stats.Comparisons += offs + int64(ones) + ext
		if best.ok(cfg) {
			stats.Matched++
		}
	}
	if !best.ok(cfg) {
		return Match{}
	}
	return best
}

// countByte returns the number of bytes v in b, eight at a time.
func countByte(b []byte, v byte) int {
	pattern := uint64(v) * lowBytes
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += bits.OnesCount64(zeroBytes(binary.LittleEndian.Uint64(b) ^ pattern))
	}
	for _, c := range b {
		if c == v {
			n++
		}
	}
	return n
}
