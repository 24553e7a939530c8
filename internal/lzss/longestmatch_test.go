package lzss

import (
	"bytes"
	"math/rand"
	"testing"

	"culzss/internal/datasets"
)

// referenceLongestMatch is the byte-at-a-time window scan that defines
// LongestMatch's result and its SearchStats counters: one comparison per
// window offset visited plus, for each offset whose byte equals the
// lookahead's first, the length it extends to.
func referenceLongestMatch(data []byte, pos, winStart int, cfg *Config, stats *SearchStats) Match {
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
	var offs, cmps int64
	for start := pos - 1; start >= winStart; start-- {
		offs++
		cmps++
		if data[start] != first {
			continue
		}
		l := 1
		for l < maxLen && data[start+l] == data[pos+l] {
			l++
		}
		cmps += int64(l)
		if l > best.Length {
			best = Match{Distance: pos - start, Length: l}
			if l == maxLen {
				break
			}
		}
	}
	if stats != nil {
		stats.Offsets += offs
		stats.Comparisons += cmps
		if best.ok(cfg) {
			stats.Matched++
		}
	}
	if !best.ok(cfg) {
		return Match{}
	}
	return best
}

// checkLongestMatch fails t unless LongestMatch and the tile index's
// LongestMatch over data return the reference's Match and move all four
// SearchStats counters by the same amounts.
func checkLongestMatch(t testing.TB, ix *TileIndex, data []byte, pos, winStart int, cfg Config) {
	t.Helper()
	var want SearchStats
	wm := referenceLongestMatch(data, pos, winStart, &cfg, &want)
	check := func(name string, search func([]byte, int, int, *Config, *SearchStats) Match) {
		t.Helper()
		var got SearchStats
		if gm := search(data, pos, winStart, &cfg, &got); gm != wm || got != want {
			t.Fatalf("%s: cfg %+v, len %d, pos %d, winStart %d: got %+v %+v, want %+v %+v",
				name, cfg, len(data), pos, winStart, gm, got, wm, want)
		}
	}
	check("word scan", LongestMatch)
	check("tile index", ix.LongestMatch)
}

func TestLongestMatchEqualsByteLoop(t *testing.T) {
	configs := []Config{CULZSSV1(), CULZSSV2(), Dipperstein(), {Window: 5, MaxMatch: 9, MinMatch: 3}}
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 1500)
	rng.Read(random)
	inputs := map[string][]byte{
		"one":     {7},
		"short":   []byte("abcab"),
		"seven":   []byte("aaaaaaa"),
		"zeros":   make([]byte, 700),
		"period2": bytes.Repeat([]byte("ab"), 350),
		"period3": bytes.Repeat([]byte("abc"), 250),
		"random":  random,
	}
	for _, g := range datasets.All() {
		inputs[g.Key] = g.Gen(1500, 1)
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			var ix TileIndex
			for _, cfg := range configs {
				// The index covers all of data but the last few
				// positions, which fall back to the word scan.
				ix.Reset(data, len(data)-3)
				for pos := range data {
					// Below 0, at pos-Window, inside the window at odd
					// and even distances, and empty.
					for _, ws := range []int{-1, pos - cfg.Window - 3, pos - cfg.Window, pos - cfg.Window/2, pos - 9, pos - 3, pos - 1, pos} {
						checkLongestMatch(t, &ix, data, pos, ws, cfg)
					}
				}
			}
		})
	}
}

func FuzzLongestMatch(f *testing.F) {
	f.Add([]byte("abcabcabcabcabcabc"), uint16(9), int16(9), uint16(127), uint16(15), uint8(1))
	f.Add(bytes.Repeat([]byte{0}, 300), uint16(200), int16(128), uint16(127), uint16(255), uint8(1))
	f.Add([]byte("xyzxyzq"), uint16(3), int16(-2), uint16(4), uint16(6), uint8(1))
	f.Add(datasets.CFiles(2048, 1), uint16(1500), int16(4096), uint16(4095), uint16(15), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, p uint16, back int16, window, extra uint16, minExtra uint8) {
		if len(data) == 0 {
			return
		}
		minMatch := 2 + int(minExtra%4)
		cfg := Config{Window: 1 + int(window%4096), MaxMatch: minMatch + int(extra%300), MinMatch: minMatch}
		pos := int(p) % len(data)
		// Index the first pos+1, pos or pos-1 bytes, so that pos itself is
		// sometimes left to the word scan, and search pos-1 first so that
		// pos can reuse its long runs.
		var ix TileIndex
		ix.Reset(data, pos+1-int(window%3))
		if pos > 0 {
			checkLongestMatch(t, &ix, data, pos-1, pos-1-int(back), cfg)
		}
		checkLongestMatch(t, &ix, data, pos, pos-int(back), cfg)
	})
}

func TestZeroBytesExact(t *testing.T) {
	// Every byte value at every position, above and below a zero byte and
	// the 0x01 bytes that fool the borrow-based zero test.
	for i := 0; i < 8; i++ {
		for v := 0; v < 256; v++ {
			for _, fill := range []uint64{0, lowBytes, ^uint64(0), 0x0001000100010001} {
				x := fill&^(0xff<<(8*i)) | uint64(v)<<(8*i)
				var want uint64
				for j := 0; j < 8; j++ {
					if byte(x>>(8*j)) == 0 {
						want |= 0x80 << (8 * j)
					}
				}
				if got := zeroBytes(x); got != want {
					t.Fatalf("zeroBytes(%#016x) = %#016x, want %#016x", x, got, want)
				}
			}
		}
	}
}
