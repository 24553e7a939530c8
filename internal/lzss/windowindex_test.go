package lzss

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"culzss/internal/datasets"
)

// checkWindowIndex resets ix to data and searches it at increasing
// positions: the greedy token starts, or steps drawn from gap when it is
// non-nil. It fails t unless every search returns referenceLongestMatch's
// Match and moves all four SearchStats counters by the same amounts.
func checkWindowIndex(t testing.TB, ix *windowIndex, data []byte, cfg Config, gap func() int) {
	t.Helper()
	ix.reset(&cfg, data)
	for pos := 0; pos < len(data); {
		var got, want SearchStats
		wm := referenceLongestMatch(data, pos, pos-cfg.Window, &cfg, &want)
		if gm := ix.longestMatch(pos, &got); gm != wm || got != want {
			t.Fatalf("cfg %+v, len %d, pos %d, base %d: got %+v %+v, want %+v %+v",
				cfg, len(data), pos, ix.base, gm, got, wm, want)
		}
		if gap != nil {
			pos += gap()
		} else {
			pos += max(wm.Length, 1)
		}
	}
}

func TestWindowIndexEqualsByteLoop(t *testing.T) {
	configs := []Config{CULZSSV1(), CULZSSV2(), Dipperstein(),
		{Window: 5, MaxMatch: 9, MinMatch: 3}, {Window: 64, MaxMatch: 4, MinMatch: 2}, {Window: 300, MaxMatch: 2, MinMatch: 2}}
	type input struct {
		name string
		gen  func(n int) []byte
	}
	inputs := []input{
		{"zeros", func(n int) []byte { return make([]byte, n) }},
		{"random", func(n int) []byte { return genRandom(n, 5) }},
		{"abc", func(n int) []byte {
			b := genRandom(n, 6)
			for i := range b {
				b[i] = 'a' + b[i]%3
			}
			return b
		}},
		{"period2", func(n int) []byte { return bytes.Repeat([]byte("ab"), n)[:n] }},
		{"period3", func(n int) []byte { return bytes.Repeat([]byte("abc"), n)[:n] }},
	}
	for _, g := range datasets.All() {
		inputs = append(inputs, input{g.Key, func(n int) []byte { return g.Gen(n, 2) }})
	}
	// One index serves every input, length and configuration, so each
	// reset reuses a head full of an earlier input's positions.
	var ix windowIndex
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			for _, n := range []int{1, 2, 13, 4096, 64 << 10} {
				data := in.gen(n)
				for _, cfg := range configs {
					checkWindowIndex(t, &ix, data, cfg, nil)
					// Gaps mostly short, sometimes past the window.
					span := 2*cfg.Window + cfg.MaxMatch
					checkWindowIndex(t, &ix, data, cfg, func() int { return 1 + rng.Intn(1+rng.Intn(span)) })
				}
			}
		})
	}
}

func TestWindowIndexGenerationWrap(t *testing.T) {
	cfg := CULZSSV1()
	text := datasets.CFiles(4096, 3)
	var ix windowIndex
	checkWindowIndex(t, &ix, text, cfg, nil)
	// Just below the wrap, this input's positions end at MaxInt32; they
	// share head with the first input's, which lie far below base.
	ix.base, ix.next = math.MaxInt32-int32(len(text)), 0
	checkWindowIndex(t, &ix, text, cfg, nil)
	if want := int32(math.MaxInt32 - len(text)); ix.base != want {
		t.Fatalf("base %d, want %d: reset cleared head without need", ix.base, want)
	}
	// The next input would wrap: head is cleared and base restarts, and
	// the entries near MaxInt32 must not leak into its chains.
	other := datasets.DEMap(3000, 4)
	checkWindowIndex(t, &ix, other, cfg, nil)
	if ix.base != 1 {
		t.Fatalf("base %d after the wrap, want 1", ix.base)
	}
	checkWindowIndex(t, &ix, text, cfg, nil)
}

func TestAppendEncodedByteAlignedReusesBuffer(t *testing.T) {
	cfg := CULZSSV1()
	input := datasets.CFiles(8192, 6)
	want, err := EncodeByteAligned(input, cfg, SearchHashChain, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xff}, len(input)) // stale bytes to overwrite
	got, err := AppendEncodedByteAligned(buf[:0], input, cfg, SearchBrute, nil)
	if err != nil || !bytes.Equal(got, want) || &got[0] != &buf[0] {
		t.Fatalf("err %v, stream equal %v, reused buffer %v", err, bytes.Equal(got, want), &got[0] == &buf[0])
	}
	prefixed, err := AppendEncodedByteAligned([]byte("hdr"), input, cfg, SearchBrute, nil)
	if err != nil || !bytes.Equal(prefixed, append([]byte("hdr"), want...)) {
		t.Fatalf("appending after a prefix: err %v", err)
	}
	if _, err := AppendEncodedByteAligned(nil, input, Config{Window: 512, MaxMatch: 18, MinMatch: 3}, SearchBrute, nil); err == nil {
		t.Fatal("accepted a window beyond the 8-bit offset field")
	}
}

func FuzzWindowIndex(f *testing.F) {
	f.Add([]byte("abcabcabcabcabcabc"), uint16(9), uint16(15), uint8(1))
	f.Add(bytes.Repeat([]byte{0}, 300), uint16(127), uint16(255), uint8(1))
	f.Add([]byte("xyzxyzq"), uint16(4), uint16(6), uint8(0))
	f.Add(datasets.DEMap(2048, 1), uint16(127), uint16(15), uint8(1))
	f.Add(datasets.CFiles(2048, 1), uint16(4095), uint16(15), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, window, extra uint16, minExtra uint8) {
		minMatch := 2 + int(minExtra%4)
		cfg := Config{Window: 1 + int(window%4096), MaxMatch: minMatch + int(extra%300), MinMatch: minMatch}
		var ix windowIndex
		checkWindowIndex(t, &ix, data, cfg, nil)
		// Again over a suffix, in the same index's next generation.
		if len(data) > 0 {
			checkWindowIndex(t, &ix, data[1:], cfg, nil)
		}
	})
}
