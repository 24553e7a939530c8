package lzss

import (
	"encoding/binary"
	"math/bits"
)

// TileIndex is a dense-search form of LongestMatch for callers that
// search every position of a staged region, as the V2 kernel's lanes do.
// Reset records, for each byte value, a bitset of the region positions
// that hold it: the host form of a warp ballot, where every lane tests
// one window byte and the warp reads the mask. A search then visits only
// the offsets holding the lookahead's first byte instead of loading every
// window word to find them. A second ballot, on the lookahead's second
// byte, settles the candidates that match exactly one byte without
// loading them.
//
// A search also keeps the lengths of its long candidates, those whose
// first eight bytes match, keyed by position and distance. The candidate
// at the same distance one position later starts one byte further along
// the same two strings, so its length follows without a compare unless
// the earlier one was capped. This is a pure cache over the indexed
// bytes: a search that finds no entry extends from scratch, so the order
// in which positions are searched changes no result.
//
// The zero value is ready for Reset. A TileIndex is not safe for
// concurrent use.
type TileIndex struct {
	n     int       // positions indexed
	words int       // bitset words per byte value: ceil(n/64)
	bits  []uint64  // bit i%64 of bits[v*words+i/64] is set when held[i] == v
	held  []byte    // a copy of the indexed bytes, to clear their bits by
	runs  []tileRun // runs[d-1]: the last long candidate at distance d
}

// tileRun caches one long candidate: the search of position at-1 found n
// matching bytes at this distance, or at least n when capped.
type tileRun struct {
	at, n  int
	capped bool
}

// Reset indexes region[:n], clearing the previous region's bits from the
// copy of its bytes the index keeps, so the caller may overwrite the
// previous region first. The index sizes itself from n: a V2 tile
// indexes its window and its lanes, 4 words per byte value at the
// paper's 128-byte window and 128 threads.
func (ix *TileIndex) Reset(region []byte, n int) {
	n = max(min(n, len(region)), 0)
	for i, v := range ix.held {
		ix.bits[int(v)*ix.words+i>>6] = 0
	}
	if n > cap(ix.held) {
		size := (n + 63) &^ 63
		ix.bits = make([]uint64, 256*size>>6)
		ix.held = make([]byte, 0, size)
		ix.runs = make([]tileRun, size)
	}
	ix.n, ix.words = n, (n+63)>>6
	ix.held = append(ix.held[:0], region[:n]...)
	for i, v := range ix.held {
		ix.bits[int(v)*ix.words+i>>6] |= 1 << (i & 63)
	}
	clear(ix.runs[:n])
}

// LongestMatch is LongestMatch over the indexed region: data must be the
// region given to the last Reset, and pos below the n indexed. It
// returns the same Match and moves stats by the same amounts as the
// package function. The candidates are the set bits of data[pos]'s
// bitset in [winStart, pos), highest first. Those whose second byte
// differs from data[pos+1] match one byte; the rest are extended exactly
// as the word scan extends them. Positions from n on fall back to the
// word scan.
func (ix *TileIndex) LongestMatch(data []byte, pos, winStart int, cfg *Config, stats *SearchStats) Match {
	if pos >= ix.n {
		return LongestMatch(data, pos, winStart, cfg, stats)
	}
	if winStart < 0 {
		winStart = 0
	}
	if lo := pos - cfg.Window; winStart < lo {
		winStart = lo
	}
	maxLen := cfg.MaxMatch
	if rem := len(data) - pos; rem < maxLen {
		maxLen = rem
	}
	if stats != nil {
		stats.Positions++
	}
	var best Match
	if maxLen < cfg.MinMatch || pos == 0 {
		return best
	}
	var head uint64
	haveHead := pos+8 <= len(data)
	if haveHead {
		head = binary.LittleEndian.Uint64(data[pos:])
	}
	set := ix.bits[int(data[pos])*ix.words:][:ix.words]
	next := ix.bits[int(data[pos+1])*ix.words:][:ix.words]
	lowest := min(winStart, pos) // lowest candidate start visited
	var ext int64                // summed extension lengths of first-byte candidates
scan:
	for w := (pos - 1) >> 6; w >= winStart>>6; w-- {
		base := w << 6
		m := set[w]
		if hi := pos - base; hi < 64 {
			m &= 1<<hi - 1
		}
		if lo := winStart - base; lo > 0 {
			m &^= 1<<lo - 1
		}
		// Bit i of pair is set when base+i+1 holds data[pos+1].
		pair := next[w] >> 1
		if w+1 < len(next) {
			pair |= next[w+1] << 63
		}
		short := m &^ pair // candidates matching exactly one byte
		m &= pair
		for m != 0 {
			top := 63 - bits.LeadingZeros64(m)
			m &^= 1 << top
			start := base + top
			var l int
			if !haveHead {
				l = extend(data, start, pos, 0, maxLen)
			} else if x := binary.LittleEndian.Uint64(data[start:]) ^ head; x != 0 {
				l = min(bits.TrailingZeros64(x)>>3, maxLen)
			} else {
				l = ix.extendLong(data, start, pos, maxLen)
			}
			ext += int64(l)
			if l > best.Length {
				best = Match{Distance: pos - start, Length: l}
				if l == maxLen {
					lowest = start
					ext += int64(bits.OnesCount64(short >> (top + 1)))
					break scan
				}
			}
		}
		ext += int64(bits.OnesCount64(short))
	}
	if stats != nil {
		offs := int64(pos - lowest)
		stats.Offsets += offs
		stats.Comparisons += offs + ext
		if best.ok(cfg) {
			stats.Matched++
		}
	}
	if !best.ok(cfg) {
		return Match{}
	}
	return best
}

// extendLong returns the length of a candidate at start whose first eight
// bytes match pos's, reusing the run cached at the same distance by the
// search of pos-1, and caches its own for pos+1.
func (ix *TileIndex) extendLong(data []byte, start, pos, maxLen int) int {
	r := &ix.runs[pos-start-1]
	var l int
	switch {
	case r.at != pos:
		l = extend(data, start, pos, 8, maxLen)
	case !r.capped:
		// pos-1's run ended on a mismatch, which lies one byte closer
		// to pos.
		l = min(r.n-1, maxLen)
	default:
		l = extend(data, start, pos, max(r.n-1, 8), maxLen)
	}
	*r = tileRun{at: pos + 1, n: l, capped: l == maxLen}
	return l
}
