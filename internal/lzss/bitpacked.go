package lzss

import (
	"fmt"

	"culzss/internal/bitio"
)

// Bit-packed token stream — the format of the paper's serial and pthread
// CPU implementations (Dipperstein-shaped).
//
// Each token is one flag bit followed by either
//
//	literal:  8 bits of raw byte                      (flag = 0)
//	coded:    Width(Window) bits of distance-1 and    (flag = 1)
//	          Width(MaxMatch-MinMatch+1) bits of length-MinMatch
//
// The stream carries no terminator; the decoder stops after producing the
// uncompressed length recorded in the container header. Trailing padding
// bits from the final byte are ignored.

// offsetBits returns the width of the distance field for cfg.
func offsetBits(cfg *Config) uint { return bitio.Width(cfg.Window) }

// lengthBits returns the width of the length field for cfg.
func lengthBits(cfg *Config) uint { return bitio.Width(cfg.MaxMatch - cfg.MinMatch + 1) }

// EncodeBitPacked compresses src into a dense bit-packed token stream
// using greedy longest-match parsing with the given search strategy.
// Search statistics are accumulated into stats when non-nil.
func EncodeBitPacked(src []byte, cfg Config, search Search, stats *SearchStats) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := bitio.NewWriter(len(src)/2 + 16)
	m := newMatcher(search, &cfg, src)
	defer m.release()
	ob, lb := offsetBits(&cfg), lengthBits(&cfg)
	for pos := 0; pos < len(src); {
		match := m.find(pos, stats)
		if match.Length >= cfg.MinMatch {
			w.WriteBit(1)
			w.WriteBits(uint64(match.Distance-1), ob)
			w.WriteBits(uint64(match.Length-cfg.MinMatch), lb)
			pos += match.Length
		} else {
			w.WriteBit(0)
			w.WriteBits(uint64(src[pos]), 8)
			pos++
		}
	}
	return w.Bytes(), nil
}

// AppendDecodedBitPacked appends the decoded expansion of comp to dst and
// returns the extended slice. The stream must decode to exactly
// originalLen additional bytes.
func AppendDecodedBitPacked(dst, comp []byte, originalLen int, cfg Config) ([]byte, error) {
	r := bitio.NewReader(comp)
	ob, lb := offsetBits(&cfg), lengthBits(&cfg)
	base := len(dst)
	for len(dst)-base < originalLen {
		flag, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		if flag == 0 {
			lit, err := r.ReadBits(8)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
			}
			dst = append(dst, byte(lit))
			continue
		}
		distM1, err := r.ReadBits(ob)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		lenM, err := r.ReadBits(lb)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		dist := int(distM1) + 1
		length := int(lenM) + cfg.MinMatch
		if dist > len(dst)-base {
			// A back-reference may not reach before the start of this
			// stream's own output (chunks are independent).
			return nil, fmt.Errorf("%w: distance %d exceeds produced output %d", ErrCorrupt, dist, len(dst)-base)
		}
		if len(dst)-base+length > originalLen {
			return nil, fmt.Errorf("%w: match overruns declared length", ErrCorrupt)
		}
		// Byte-at-a-time copy: overlapping matches (dist < length) must
		// re-read bytes written earlier in this same copy.
		from := len(dst) - dist
		for i := 0; i < length; i++ {
			dst = append(dst, dst[from+i])
		}
	}
	return dst, nil
}
