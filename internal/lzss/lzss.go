// Package lzss implements the Lempel–Ziv–Storer–Szymanski dictionary
// compression algorithm that every compressor in this repository builds on.
//
// LZSS (Storer & Szymanski 1982) improves LZ77 by prefixing every token
// with a one-bit flag that says whether the token is a raw literal or a
// (offset, length) back-reference into the sliding window, and by emitting
// a back-reference only when it is no longer than the bytes it replaces
// (the minimum-match rule; with the 16-bit coded token used here the
// minimum useful match is three bytes, exactly as in the paper §II.A).
//
// The package provides:
//
//   - Config: window / lookahead / minimum-match parameterisation with the
//     three presets used by the paper (Dipperstein's serial defaults and
//     the CULZSS V1/V2 GPU configurations).
//   - Longest-match search primitives: the brute-force linear scan the
//     paper's serial and GPU implementations use (with search statistics
//     feeding the GPU performance model), and an optional hash-chain
//     matcher (the paper's §VII "improved searching" future work).
//   - Two token-stream formats: the dense bit-packed stream of the serial
//     implementation (1 flag bit + 8-bit literal or offset/length fields)
//     and the byte-aligned stream of the GPU implementations (flag bytes
//     covering groups of eight tokens + 16-bit coded tokens).
//
// Streams produced by this package are raw token streams; framing (chunk
// tables, checksums, parameters) is added by the container in
// internal/format.
package lzss

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Errors shared by the decoders.
var (
	ErrCorrupt   = errors.New("lzss: corrupt token stream")
	ErrTruncated = errors.New("lzss: truncated token stream")
)

// Config parameterises the LZSS dictionary.
type Config struct {
	// Window is the sliding-window (search buffer) size in bytes: the
	// maximum back-reference distance.
	Window int
	// MaxMatch is the maximum match length a coded token can express
	// (the lookahead-buffer size in the classical formulation).
	MaxMatch int
	// MinMatch is the shortest match worth coding. Shorter runs are
	// emitted as literals; with a 16-bit coded token, a two-byte match
	// costs as much as two literals (paper §II.A.1), so MinMatch is 3.
	MinMatch int
}

// Preset configurations.

// Dipperstein returns the serial CPU configuration adapted from
// Dipperstein's reference implementation [paper ref 15]: a 4 KiB window
// with an 18-byte lookahead, 12-bit offsets and 4-bit lengths when
// bit-packed.
func Dipperstein() Config { return Config{Window: 4096, MaxMatch: 18, MinMatch: 3} }

// CULZSSV1 returns the GPU Version 1 configuration: a 128-byte window
// (paper §III.D: best performing, and it fits the 16-bit coded token),
// classical 18-byte lookahead.
func CULZSSV1() Config { return Config{Window: 128, MaxMatch: 18, MinMatch: 3} }

// CULZSSV2 returns the GPU Version 2 configuration: the same 128-byte
// window but with the extended 8-bit match-length field (lengths up to
// MinMatch+255), which is where V2's win on highly compressible data
// comes from (Table II, last row).
func CULZSSV2() Config { return Config{Window: 128, MaxMatch: 258, MinMatch: 3} }

// maxFieldBits caps the bit-packed stream's distance and length fields.
const maxFieldBits = 16

// Validate reports whether the configuration is internally consistent and
// fits the bit-packed token's fields; byteAlignedOK checks the narrower
// byte-aligned token. No encoder writes a field wider than maxFieldBits,
// and no decoder accepts one: a length field of a header's choosing would
// let one coded token claim any amount of output. MinMatch must fit the
// container header, or an encoder would write a stream no decoder reads.
func (c Config) Validate() error {
	if c.Window < 1 {
		return fmt.Errorf("lzss: window %d < 1", c.Window)
	}
	if c.MinMatch < 2 {
		return fmt.Errorf("lzss: min match %d < 2", c.MinMatch)
	}
	if c.MinMatch > 255 {
		return fmt.Errorf("lzss: min match %d does not fit the header's 8-bit field", c.MinMatch)
	}
	if c.MaxMatch < c.MinMatch {
		return fmt.Errorf("lzss: max match %d < min match %d", c.MaxMatch, c.MinMatch)
	}
	if w := offsetBits(&c); w > maxFieldBits {
		return fmt.Errorf("lzss: window %d needs a %d-bit offset field, over %d", c.Window, w, maxFieldBits)
	}
	if w := lengthBits(&c); w > maxFieldBits {
		return fmt.Errorf("lzss: max match %d needs a %d-bit length field, over %d", c.MaxMatch, w, maxFieldBits)
	}
	return nil
}

// byteAlignedOK reports whether the configuration fits the byte-aligned
// 16-bit coded token (8-bit offset, 8-bit length).
func (c Config) byteAlignedOK() error {
	if c.Window > 256 {
		return fmt.Errorf("lzss: window %d does not fit the 8-bit offset field", c.Window)
	}
	if c.MaxMatch-c.MinMatch > 255 {
		return fmt.Errorf("lzss: max match %d does not fit the 8-bit length field", c.MaxMatch)
	}
	return nil
}

// Match is a back-reference into the sliding window: Length bytes starting
// Distance bytes before the current position. Distance may be smaller than
// Length (an overlapping match: the classical run-length trick).
type Match struct {
	Distance int
	Length   int
}

// ok reports whether the match is worth coding under cfg.
func (m Match) ok(cfg *Config) bool { return m.Length >= cfg.MinMatch }

// SearchStats accumulates work counters during match search. The GPU
// performance model consumes these: Comparisons is the dominant term of
// the kernels' simulated compute time.
type SearchStats struct {
	// Positions is the number of input positions for which a search ran.
	Positions int64
	// Offsets is the number of candidate window offsets visited.
	Offsets int64
	// Comparisons is the number of byte comparisons performed.
	Comparisons int64
	// Matched is the number of searches that found a codable match.
	Matched int64
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.Positions += other.Positions
	s.Offsets += other.Offsets
	s.Comparisons += other.Comparisons
	s.Matched += other.Matched
}

// LongestMatch performs the brute-force window search used by the paper's
// serial implementation and both GPU kernels: every candidate offset in
// [winStart, pos) is tried, closest first, and the longest match wins;
// ties therefore prefer the shortest distance (which also makes the output
// byte-identical to HashMatcher's). The scan stops early when a match of
// the maximum expressible length is found (which is why LZSS flies on the
// highly-compressible dataset, Table I last row).
//
// winStart is the first data index the window may reference. Callers
// normally pass max(0, pos-cfg.Window); the V2 kernel passes its
// tile-anchored window start instead. Matches may overlap pos (source
// extending into the region being matched), exactly as a serial sliding
// window allows.
//
// The scan runs a word at a time: one 64-bit load tests eight window
// offsets against the lookahead's first byte, and each candidate is
// extended by XOR-ing eight bytes per step. The counters in stats are
// those of the byte-at-a-time loop it replaces, which the GPU cycle
// model charges: Offsets counts every offset from pos-1 down to the last
// one visited, and Comparisons adds one per offset plus each first-byte
// candidate's extension length (its matching bytes, with the failing
// compare folded in).
func LongestMatch(data []byte, pos, winStart int, cfg *Config, stats *SearchStats) Match {
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
	first := data[pos]
	pattern := uint64(first) * lowBytes
	// With eight lookahead bytes in data, a candidate costs one load and
	// XOR against head unless it matches all eight.
	var head uint64
	haveHead := pos+8 <= len(data)
	if haveHead {
		head = binary.LittleEndian.Uint64(data[pos:])
	}
	lowest := min(winStart, pos) // lowest candidate start visited
	var ext int64                // summed extension lengths of first-byte candidates
scan:
	for hi := pos; hi > winStart; hi -= 8 {
		// z flags, as 0x80 in byte i, each offset base+i holding first.
		base := hi - 8
		var z uint64
		if base >= winStart {
			z = zeroBytes(binary.LittleEndian.Uint64(data[base:]) ^ pattern)
		} else {
			for i := winStart; i < hi; i++ {
				if data[i] == first {
					z |= 0x80 << (8 * (i - base))
				}
			}
		}
		for z != 0 {
			top := 63 - bits.LeadingZeros64(z)
			z &^= 1 << top
			start := base + top>>3
			var l int
			if !haveHead {
				l = extend(data, start, pos, 0, maxLen)
			} else if x := binary.LittleEndian.Uint64(data[start:]) ^ head; x != 0 {
				l = min(bits.TrailingZeros64(x)>>3, maxLen)
			} else {
				l = extend(data, start, pos, 8, maxLen)
			}
			ext += int64(l)
			if l > best.Length {
				best = Match{Distance: pos - start, Length: l}
				if l == maxLen {
					lowest = start
					break scan
				}
			}
		}
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

const (
	lowBytes  = 0x0101010101010101
	low7Bytes = 0x7f7f7f7f7f7f7f7f
)

// zeroBytes returns 0x80 in every byte of x that is zero and 0 elsewhere.
// Unlike the (x-0x01..)&^x&0x80.. test it has no false positives: no
// carry crosses a byte.
func zeroBytes(x uint64) uint64 {
	return ^((x&low7Bytes + low7Bytes) | x | low7Bytes)
}

// extend returns the length of the common prefix of data[a:] and data[b:],
// capped at maxLen, given that their first l bytes match; a < b and
// b+maxLen <= len(data).
func extend(data []byte, a, b, l, maxLen int) int {
	for ; l < maxLen; l += 8 {
		if b+l+8 > len(data) {
			for l < maxLen && data[a+l] == data[b+l] {
				l++
			}
			return l
		}
		if x := binary.LittleEndian.Uint64(data[a+l:]) ^ binary.LittleEndian.Uint64(data[b+l:]); x != 0 {
			return min(l+bits.TrailingZeros64(x)>>3, maxLen)
		}
	}
	return maxLen
}

// MaxDecodedLenBitPacked bounds what a compLen-byte bit-packed stream can
// decode to under a valid cfg. Its tokens are whole: a literal yields one
// byte for 9 bits and a coded token at most MaxMatch bytes for
// 1+offset+length bits, so no stream yields more than its compLen*8 bits
// spent all on the denser kind.
func MaxDecodedLenBitPacked(compLen int, cfg Config) int {
	bits := 8 * compLen
	coded := int(1 + offsetBits(&cfg) + lengthBits(&cfg))
	return max(bits/9, bits*cfg.MaxMatch/coded)
}

// MaxEncodedLenByteAligned bounds the byte-aligned stream size for n input
// bytes: worst case is all literals, one flag byte per eight tokens.
func MaxEncodedLenByteAligned(n int) int {
	return n + (n+7)/8
}
