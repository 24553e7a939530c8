package lzss

// Optimal parsing — a beyond-the-paper extension in the spirit of §VII's
// "further improvement opportunities on the LZSS algorithm".
//
// The paper's encoders (and both GPU kernels) parse greedily: take the
// longest match at the current position. Greedy is not optimal: accepting
// a shorter match (or a literal) sometimes exposes a much longer match
// one position later. Because every prefix of a match is itself a valid
// match at the same distance, the minimum-cost tokenisation is a simple
// backward dynamic program over token costs.
//
// Costs are in eighths of a byte (a flag bit is 1/8 byte in the
// byte-aligned stream): a literal costs 8+1, a coded token 16+1.

const (
	literalCost8 = 9  // 1 flag bit + 8 payload bits
	matchCost8   = 17 // 1 flag bit + 16 payload bits
)

// EncodeByteAlignedOptimal compresses src into the byte-aligned stream
// using minimum-cost parsing. Output decodes with the same decoder and is
// never larger than the greedy parse (modulo the final flag byte's
// padding).
func EncodeByteAlignedOptimal(src []byte, cfg Config, stats *SearchStats) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.byteAlignedOK(); err != nil {
		return nil, err
	}
	n := len(src)
	// Longest match per position (hash chains keep this near-linear).
	hm := NewHashMatcher(cfg)
	hm.Reset(src)
	best := make([]Match, n)
	for i := 0; i < n; i++ {
		best[i] = hm.Find(i, stats)
		hm.Insert(i)
	}

	// Backward DP: cost[i] = cheapest encoding of src[i:].
	const inf = int64(1) << 62
	cost := make([]int64, n+1)
	choice := make([]int32, n) // 0 = literal, l>0 = match of length l
	for i := n - 1; i >= 0; i-- {
		c := literalCost8 + cost[i+1]
		choice[i] = 0
		if m := best[i]; m.Length >= cfg.MinMatch {
			// Any length in [MinMatch, m.Length] is valid at m.Distance.
			for l := cfg.MinMatch; l <= m.Length; l++ {
				if v := matchCost8 + cost[i+l]; v < c {
					c = v
					choice[i] = int32(l)
				}
			}
		}
		if c >= inf {
			c = inf - 1
		}
		cost[i] = c
	}

	// Forward reconstruction.
	w := NewByteAlignedWriter(&cfg, make([]byte, 0, n/2+16))
	for i := 0; i < n; {
		if l := int(choice[i]); l > 0 {
			if err := w.Match(Match{Distance: best[i].Distance, Length: l}); err != nil {
				return nil, err
			}
			i += l
		} else {
			w.Literal(src[i])
			i++
		}
	}
	return w.Bytes(), nil
}
