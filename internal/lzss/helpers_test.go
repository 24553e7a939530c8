package lzss

import "fmt"

// Helpers only the tests call.

// DecodeByteAligned expands a byte-aligned token stream produced with cfg
// into exactly originalLen bytes.
func DecodeByteAligned(comp []byte, originalLen int, cfg Config) ([]byte, error) {
	dst := make([]byte, 0, originalLen)
	return AppendDecodedByteAligned(dst, comp, originalLen, cfg)
}

// AppendTokensByteAligned serialises a token sequence into the byte-aligned
// stream format, appending to dst.
func AppendTokensByteAligned(dst []byte, tokens []Token, cfg *Config) ([]byte, error) {
	if err := cfg.byteAlignedOK(); err != nil {
		return nil, err
	}
	for g := 0; g < len(tokens); g += 8 {
		end := g + 8
		if end > len(tokens) {
			end = len(tokens)
		}
		var flags byte
		for i, t := range tokens[g:end] {
			if t.Coded {
				flags |= 1 << (7 - i)
			}
		}
		dst = append(dst, flags)
		for _, t := range tokens[g:end] {
			if t.Coded {
				if t.Match.Distance < 1 || t.Match.Distance > 256 {
					return nil, fmt.Errorf("lzss: distance %d out of byte-aligned range", t.Match.Distance)
				}
				if t.Match.Length < cfg.MinMatch || t.Match.Length-cfg.MinMatch > 255 {
					return nil, fmt.Errorf("lzss: length %d out of byte-aligned range", t.Match.Length)
				}
				dst = append(dst, byte(t.Match.Distance-1), byte(t.Match.Length-cfg.MinMatch))
			} else {
				dst = append(dst, t.Literal)
			}
		}
	}
	return dst, nil
}

// DecodeBitPacked expands a bit-packed token stream produced with cfg into
// exactly originalLen bytes.
func DecodeBitPacked(comp []byte, originalLen int, cfg Config) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dst := make([]byte, 0, originalLen)
	var err error
	if dst, err = AppendDecodedBitPacked(dst, comp, originalLen, cfg); err != nil {
		return nil, err
	}
	return dst, nil
}

// MaxEncodedLenBitPacked bounds the bit-packed stream size for n input
// bytes: worst case is all literals at 9 bits each, plus the final byte's
// padding.
func MaxEncodedLenBitPacked(n int, cfg Config) int {
	return (n*9+7)/8 + 1
}

// SetMaxChain bounds chain walks per search; 0 means unlimited.
func (m *HashMatcher) SetMaxChain(n int) { m.maxChain = n }
