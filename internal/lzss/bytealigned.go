package lzss

import "fmt"

// Byte-aligned token stream — the format of the CULZSS GPU kernels.
//
// Tokens are grouped in eights. Each group is preceded by one flag byte
// whose bits, MSB first, describe the following eight tokens: bit set =
// coded token (two bytes: distance-1, length-MinMatch), bit clear =
// literal (one raw byte). The final group may cover fewer than eight
// tokens; its unused flag bits are zero. This is the "16 bit encoding
// space" of paper §III.D: 8 bits of match offset and 8 bits of match
// length, which caps the window at 256 bytes and the match length at
// MinMatch+255.
//
// Like the bit-packed stream, there is no terminator: the decoder stops
// after producing the length recorded in the container.

// Token is one parsed LZSS token, used by the GPU kernels' host post-pass
// and by tests that inspect parse decisions.
type Token struct {
	Coded   bool
	Literal byte  // valid when !Coded
	Match   Match // valid when Coded
}

// ByteAlignedWriter emits the byte-aligned token stream incrementally:
// it maintains the current group's flag byte in place, so producers (the
// V2 host post-pass, the encoders) need no intermediate token slice.
type ByteAlignedWriter struct {
	cfg     *Config
	dst     []byte
	flagPos int // index of the current group's flag byte; -1 when closed
	nGroup  int // tokens in the current group (0..8)
}

// NewByteAlignedWriter returns a writer that appends the stream to dst,
// so a caller can reuse a buffer by passing it as buf[:0].
func NewByteAlignedWriter(cfg *Config, dst []byte) *ByteAlignedWriter {
	return &ByteAlignedWriter{cfg: cfg, dst: dst, flagPos: -1}
}

func (w *ByteAlignedWriter) openGroup() {
	if w.flagPos < 0 || w.nGroup == 8 {
		w.dst = append(w.dst, 0)
		w.flagPos = len(w.dst) - 1
		w.nGroup = 0
	}
}

// Literal appends an uncoded byte token.
func (w *ByteAlignedWriter) Literal(b byte) {
	w.openGroup()
	w.dst = append(w.dst, b)
	w.nGroup++
}

// Match appends a coded token.
func (w *ByteAlignedWriter) Match(m Match) error {
	if m.Distance < 1 || m.Distance > 256 {
		return fmt.Errorf("lzss: distance %d out of byte-aligned range", m.Distance)
	}
	if m.Length < w.cfg.MinMatch || m.Length-w.cfg.MinMatch > 255 {
		return fmt.Errorf("lzss: length %d out of byte-aligned range", m.Length)
	}
	w.openGroup()
	w.dst[w.flagPos] |= 1 << (7 - w.nGroup)
	w.dst = append(w.dst, byte(m.Distance-1), byte(m.Length-w.cfg.MinMatch))
	w.nGroup++
	return nil
}

// Bytes returns dst extended by the stream written so far.
func (w *ByteAlignedWriter) Bytes() []byte { return w.dst }

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

// EncodeByteAligned compresses src into the byte-aligned stream with
// greedy longest-match parsing. It is the CPU-reference encoder for the
// GPU wire format: kernels must produce byte-identical output for the
// same configuration.
func EncodeByteAligned(src []byte, cfg Config, search Search, stats *SearchStats) ([]byte, error) {
	return AppendEncodedByteAligned(make([]byte, 0, len(src)/2+16), src, cfg, search, stats)
}

// AppendEncodedByteAligned appends the byte-aligned stream of src to dst,
// as EncodeByteAligned, so a caller can reuse a buffer by passing it as
// buf[:0]. SearchBrute runs through a sliding window index that returns
// LongestMatch's matches and search counters for less work: greedy
// parsing searches only where a token starts, and the index is kept
// current a byte at a time in between.
func AppendEncodedByteAligned(dst, src []byte, cfg Config, search Search, stats *SearchStats) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.byteAlignedOK(); err != nil {
		return nil, err
	}
	if search == SearchBrute {
		search = searchIndexed
	}
	m := newMatcher(search, &cfg, src)
	defer m.release()
	w := NewByteAlignedWriter(&cfg, dst)
	for pos := 0; pos < len(src); {
		match := m.find(pos, stats)
		if match.Length >= cfg.MinMatch {
			if err := w.Match(match); err != nil {
				return nil, err
			}
			pos += match.Length
		} else {
			w.Literal(src[pos])
			pos++
		}
	}
	return w.Bytes(), nil
}

// DecodeByteAligned expands a byte-aligned token stream produced with cfg
// into exactly originalLen bytes.
func DecodeByteAligned(comp []byte, originalLen int, cfg Config) ([]byte, error) {
	dst := make([]byte, 0, originalLen)
	return AppendDecodedByteAligned(dst, comp, originalLen, cfg)
}

// AppendDecodedByteAligned appends the decoded expansion of comp to dst.
// The stream must decode to exactly originalLen additional bytes.
func AppendDecodedByteAligned(dst, comp []byte, originalLen int, cfg Config) ([]byte, error) {
	base := len(dst)
	pos := 0
	for len(dst)-base < originalLen {
		if pos >= len(comp) {
			return nil, fmt.Errorf("%w: flag byte missing", ErrTruncated)
		}
		flags := comp[pos]
		pos++
		for bit := 0; bit < 8 && len(dst)-base < originalLen; bit++ {
			if flags&(1<<(7-bit)) == 0 {
				if pos >= len(comp) {
					return nil, fmt.Errorf("%w: literal missing", ErrTruncated)
				}
				dst = append(dst, comp[pos])
				pos++
				continue
			}
			if pos+2 > len(comp) {
				return nil, fmt.Errorf("%w: coded token missing", ErrTruncated)
			}
			dist := int(comp[pos]) + 1
			length := int(comp[pos+1]) + cfg.MinMatch
			pos += 2
			if dist > len(dst)-base {
				return nil, fmt.Errorf("%w: distance %d exceeds produced output %d", ErrCorrupt, dist, len(dst)-base)
			}
			if len(dst)-base+length > originalLen {
				return nil, fmt.Errorf("%w: match overruns declared length", ErrCorrupt)
			}
			from := len(dst) - dist
			for i := 0; i < length; i++ {
				dst = append(dst, dst[from+i])
			}
		}
	}
	return dst, nil
}

// ParseTokensByteAligned parses a byte-aligned stream back into tokens,
// stopping once the tokens expand to originalLen bytes. It is the
// inspection tool used by tests and by the GPU decompression kernel's
// host-side verifier.
func ParseTokensByteAligned(comp []byte, originalLen int, cfg *Config) ([]Token, error) {
	var tokens []Token
	produced := 0
	pos := 0
	for produced < originalLen {
		if pos >= len(comp) {
			return nil, fmt.Errorf("%w: flag byte missing", ErrTruncated)
		}
		flags := comp[pos]
		pos++
		for bit := 0; bit < 8 && produced < originalLen; bit++ {
			if flags&(1<<(7-bit)) == 0 {
				if pos >= len(comp) {
					return nil, fmt.Errorf("%w: literal missing", ErrTruncated)
				}
				tokens = append(tokens, Token{Literal: comp[pos]})
				pos++
				produced++
				continue
			}
			if pos+2 > len(comp) {
				return nil, fmt.Errorf("%w: coded token missing", ErrTruncated)
			}
			m := Match{Distance: int(comp[pos]) + 1, Length: int(comp[pos+1]) + cfg.MinMatch}
			pos += 2
			if m.Distance > produced {
				return nil, fmt.Errorf("%w: distance %d exceeds produced output %d", ErrCorrupt, m.Distance, produced)
			}
			tokens = append(tokens, Token{Coded: true, Match: m})
			produced += m.Length
		}
	}
	if produced != originalLen {
		return nil, fmt.Errorf("%w: stream expands to %d bytes, want %d", ErrCorrupt, produced, originalLen)
	}
	return tokens, nil
}
