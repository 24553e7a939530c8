package lzss

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestFigure1EncodingExample reproduces the paper's Figure 1 worked
// example. With a window covering the whole text, the encoder must find
// the same long matches the figure shows — in particular the final
// "I said what I meant" line collapsing into one long back-reference
// (the figure's "(24,19)") and the encoded size landing well under the
// original 102 characters (figure: 56).
func TestFigure1EncodingExample(t *testing.T) {
	// The figure's text: 102 characters across its four content lines.
	text := "I meant what I said and I said what I meant \nFrom there to here \nfrom here to there \nI said what I meant"
	if len(text) != 104 { // the figure counts 102 + our line joins
		t.Fatalf("figure text length drifted: %d", len(text))
	}
	cfg := Config{Window: 256, MaxMatch: 64, MinMatch: 3}

	comp, err := EncodeByteAligned([]byte(text), cfg, SearchBrute, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The figure compresses 102 -> 56 token-characters; our byte-aligned
	// stream (2-byte coded tokens + flag bytes) must land in the same
	// region, clearly below 70%.
	if len(comp) >= len(text)*7/10 {
		t.Fatalf("figure text barely compressed: %d -> %d", len(text), len(comp))
	}
	tokens, err := ParseTokensByteAligned(comp, len(text), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The figure's hallmark: a long match near the end covering
	// "I said what I meant" (19 chars) — our greedy parse finds an
	// 18+ byte match for that repetition.
	longest := 0
	for _, tok := range tokens {
		if tok.Coded && tok.Match.Length > longest {
			longest = tok.Match.Length
		}
	}
	if longest < 15 {
		t.Fatalf("longest match %d; the figure's long repetitions were missed", longest)
	}
	// Round trip, of course.
	back, err := DecodeByteAligned(comp, len(text), cfg)
	if err != nil || string(back) != text {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestByteAlignedWriterBasics(t *testing.T) {
	cfg := CULZSSV1()
	w := NewByteAlignedWriter(&cfg, nil)
	w.Literal('a')
	if err := w.Match(Match{Distance: 1, Length: 5}); err != nil {
		t.Fatal(err)
	}
	w.Literal('b')
	got := w.Bytes()
	// flags: 010 followed by zero padding -> 0b01000000
	want := []byte{0x40, 'a', 0, 2, 'b'}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream = %x, want %x", got, want)
	}
	dec, err := DecodeByteAligned(got, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec) != "aaaaaab" {
		t.Fatalf("decoded %q", dec)
	}
}

func TestByteAlignedWriterGroupBoundaries(t *testing.T) {
	cfg := CULZSSV1()
	// 20 literals: groups of 8 + 8 + 4, three flag bytes.
	w := NewByteAlignedWriter(&cfg, nil)
	for i := 0; i < 20; i++ {
		w.Literal(byte('A' + i))
	}
	got := w.Bytes()
	if len(got) != 23 {
		t.Fatalf("len = %d, want 23 (20 literals + 3 flags)", len(got))
	}
	if got[0] != 0 || got[9] != 0 || got[18] != 0 {
		t.Fatalf("flag bytes misplaced: %x", got)
	}
	dec, err := DecodeByteAligned(got, 20, cfg)
	if err != nil || len(dec) != 20 || dec[19] != 'T' {
		t.Fatalf("decode: %q %v", dec, err)
	}
}

func TestByteAlignedWriterRangeChecks(t *testing.T) {
	cfg := CULZSSV1()
	w := NewByteAlignedWriter(&cfg, nil)
	if err := w.Match(Match{Distance: 0, Length: 5}); err == nil {
		t.Error("accepted distance 0")
	}
	if err := w.Match(Match{Distance: 300, Length: 5}); err == nil {
		t.Error("accepted distance 300")
	}
	if err := w.Match(Match{Distance: 1, Length: 2}); err == nil {
		t.Error("accepted sub-minimum length")
	}
	if err := w.Match(Match{Distance: 1, Length: 1000}); err == nil {
		t.Error("accepted over-long match")
	}
}

// TestWriterMatchesAppendTokens pins the incremental writer to the
// token-slice serializer, each trial writing over the previous trial's
// buffer, which starts out filled with set bits.
func TestWriterMatchesAppendTokens(t *testing.T) {
	cfg := CULZSSV2()
	rng := rand.New(rand.NewSource(4))
	buf := bytes.Repeat([]byte{0xff}, 512)
	for trial := 0; trial < 50; trial++ {
		var tokens []Token
		w := NewByteAlignedWriter(&cfg, buf[:0])
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b := byte(rng.Intn(256))
				tokens = append(tokens, Token{Literal: b})
				w.Literal(b)
			} else {
				m := Match{Distance: 1 + rng.Intn(256), Length: cfg.MinMatch + rng.Intn(250)}
				tokens = append(tokens, Token{Coded: true, Match: m})
				if err := w.Match(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, err := AppendTokensByteAligned(nil, tokens, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("trial %d: writer and serializer disagree", trial)
		}
		buf = w.Bytes()
	}
}

// TestDecodersNeverPanicOnGarbage feeds random bytes into both decoders:
// errors are fine, panics are not.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfgs := []Config{CULZSSV1(), CULZSSV2(), Dipperstein()}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		garbage := make([]byte, n)
		rng.Read(garbage)
		declared := rng.Intn(256)
		cfg := cfgs[trial%len(cfgs)]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: byte-aligned decoder panicked: %v", trial, r)
				}
			}()
			_, _ = DecodeByteAligned(garbage, declared, cfg)
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: bit-packed decoder panicked: %v", trial, r)
				}
			}()
			_, _ = DecodeBitPacked(garbage, declared, cfg)
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: token parser panicked: %v", trial, r)
				}
			}()
			_, _ = ParseTokensByteAligned(garbage, declared, &cfg)
		}()
	}
}

func TestTinyWindowConfig(t *testing.T) {
	cfg := Config{Window: 1, MaxMatch: 4, MinMatch: 3}
	input := []byte("aaaaaaaaabbbbbbbbb")
	comp, err := EncodeBitPacked(input, cfg, SearchBrute, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBitPacked(comp, len(input), cfg)
	if err != nil || !bytes.Equal(got, input) {
		t.Fatalf("window-1 round trip failed: %v", err)
	}
	// Runs compress even with distance-1-only references.
	if len(comp) >= len(input) {
		t.Fatalf("runs did not compress at window 1: %d -> %d", len(input), len(comp))
	}
}

func TestSearchStringer(t *testing.T) {
	if SearchBrute.String() != "brute" || SearchHashChain.String() != "hashchain" {
		t.Fatal("Search.String broken")
	}
	if !strings.Contains(Search(9).String(), "?") {
		t.Fatal("unknown Search should render with a marker")
	}
}

func TestHashMatcherResetReuse(t *testing.T) {
	cfg := CULZSSV1()
	hm := NewHashMatcher(cfg)
	a := []byte("abcabcabcabc")
	b := []byte("xyzxyzxyzxyz")
	hm.Reset(a)
	for i := range a {
		hm.Insert(i)
	}
	hm.Reset(b)
	for pos := 0; pos < len(b); pos++ {
		want := LongestMatch(b, pos, pos-cfg.Window, &cfg, nil)
		got := hm.Find(pos, nil)
		if got != want {
			t.Fatalf("stale chains after Reset: pos %d got %+v want %+v", pos, got, want)
		}
		hm.Insert(pos)
	}
}
