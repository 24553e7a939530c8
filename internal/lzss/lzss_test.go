package lzss

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestConfigPresetsValid(t *testing.T) {
	for _, cfg := range []Config{Dipperstein(), CULZSSV1(), CULZSSV2()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %+v invalid: %v", cfg, err)
		}
	}
	if err := CULZSSV1().byteAlignedOK(); err != nil {
		t.Errorf("CULZSSV1 not byte-aligned encodable: %v", err)
	}
	if err := CULZSSV2().byteAlignedOK(); err != nil {
		t.Errorf("CULZSSV2 not byte-aligned encodable: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{Window: 0, MaxMatch: 18, MinMatch: 3},
		{Window: 128, MaxMatch: 2, MinMatch: 3},
		{Window: 128, MaxMatch: 18, MinMatch: 1},
		{Window: 1<<16 + 1, MaxMatch: 18, MinMatch: 3},    // 17-bit offset
		{Window: 1, MaxMatch: 1<<16 + 3, MinMatch: 3},     // 17-bit length
		{Window: 1, MaxMatch: 1 << 34, MinMatch: 3},       // 34-bit length
		{Window: 1 << 40, MaxMatch: 1 << 40, MinMatch: 3}, // what a header may claim
		{Window: 4096, MaxMatch: 400, MinMatch: 300},      // beyond the header's 8-bit field
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
	if err := (Config{Window: 1 << 16, MaxMatch: 1<<16 + 2, MinMatch: 3}).Validate(); err != nil {
		t.Errorf("Validate refused 16-bit fields: %v", err)
	}
	if err := (Config{Window: 4096, MaxMatch: 400, MinMatch: 255}).Validate(); err != nil {
		t.Errorf("Validate refused the widest MinMatch the header holds: %v", err)
	}
	tooWide := Config{Window: 512, MaxMatch: 18, MinMatch: 3}
	if err := tooWide.byteAlignedOK(); err == nil {
		t.Errorf("byteAlignedOK accepted window 512")
	}
	tooLong := Config{Window: 128, MaxMatch: 300, MinMatch: 3}
	if err := tooLong.byteAlignedOK(); err == nil {
		t.Errorf("byteAlignedOK accepted max match 300")
	}
}

func TestLongestMatchBasics(t *testing.T) {
	cfg := Config{Window: 16, MaxMatch: 8, MinMatch: 3}
	data := []byte("abcabcabc")

	// At pos 3, "abcabc" matches distance 3 with overlap, capped by the
	// remaining 6 bytes.
	m := LongestMatch(data, 3, 0, &cfg, nil)
	if m.Distance != 3 || m.Length != 6 {
		t.Fatalf("match at 3 = %+v, want {3 6}", m)
	}

	// At pos 0 there is no window.
	if m := LongestMatch(data, 0, 0, &cfg, nil); m.Length != 0 {
		t.Fatalf("match at 0 = %+v, want none", m)
	}

	// Short candidate below MinMatch is rejected.
	m = LongestMatch([]byte("abxaby"), 3, 0, &cfg, nil)
	if m.Length != 0 {
		t.Fatalf("sub-minimum match accepted: %+v", m)
	}
}

func TestLongestMatchWindowLimit(t *testing.T) {
	cfg := Config{Window: 4, MaxMatch: 8, MinMatch: 3}
	// "abcd" appears at 0, but from pos 8 the window only reaches back 4.
	data := []byte("abcdXYZWabcd")
	m := LongestMatch(data, 8, 0, &cfg, nil)
	if m.Length != 0 {
		t.Fatalf("match beyond window accepted: %+v", m)
	}
	// With a big enough window the match is found.
	cfg.Window = 16
	m = LongestMatch(data, 8, 0, &cfg, nil)
	if m.Distance != 8 || m.Length != 4 {
		t.Fatalf("match = %+v, want {8 4}", m)
	}
}

func TestLongestMatchWinStartOverride(t *testing.T) {
	cfg := Config{Window: 256, MaxMatch: 8, MinMatch: 3}
	data := []byte("abcdefghabcdefgh")
	// Restricting winStart to 8 hides the copy at 0.
	if m := LongestMatch(data, 8, 8, &cfg, nil); m.Length != 0 {
		t.Fatalf("winStart ignored: %+v", m)
	}
	if m := LongestMatch(data, 8, 0, &cfg, nil); m.Length != 8 {
		t.Fatalf("match = %+v, want length 8", m)
	}
}

func TestLongestMatchPrefersClosest(t *testing.T) {
	cfg := Config{Window: 64, MaxMatch: 4, MinMatch: 3}
	data := []byte("abcXabcYabc")
	m := LongestMatch(data, 8, 0, &cfg, nil)
	if m.Distance != 4 || m.Length != 3 {
		t.Fatalf("match = %+v, want closest {4 3}", m)
	}
}

func TestLongestMatchEarlyExitAtMax(t *testing.T) {
	cfg := Config{Window: 128, MaxMatch: 8, MinMatch: 3}
	data := bytes.Repeat([]byte("ab"), 64)
	var stats SearchStats
	m := LongestMatch(data, 64, 0, &cfg, &stats)
	if m.Length != 8 {
		t.Fatalf("match = %+v, want max length 8", m)
	}
	// Early exit means the first candidate (distance 2) already gives the
	// max, so only a couple of offsets are visited.
	if stats.Offsets > 4 {
		t.Fatalf("early exit did not trigger: %d offsets visited", stats.Offsets)
	}
}

func TestLongestMatchStats(t *testing.T) {
	cfg := Config{Window: 8, MaxMatch: 8, MinMatch: 3}
	var stats SearchStats
	data := []byte("xyzxyzxyz")
	LongestMatch(data, 3, 0, &cfg, &stats)
	LongestMatch(data, 6, 0, &cfg, &stats)
	if stats.Positions != 2 {
		t.Fatalf("Positions = %d", stats.Positions)
	}
	if stats.Matched != 2 {
		t.Fatalf("Matched = %d", stats.Matched)
	}
	if stats.Comparisons == 0 || stats.Offsets == 0 {
		t.Fatalf("counters not accumulated: %+v", stats)
	}
	var sum SearchStats
	sum.Add(stats)
	sum.Add(stats)
	if sum.Positions != 4 {
		t.Fatalf("Add broken: %+v", sum)
	}
}

func TestHashMatcherAgreesWithBrute(t *testing.T) {
	cfgs := []Config{Dipperstein(), CULZSSV1(), CULZSSV2(), {Window: 32, MaxMatch: 10, MinMatch: 3}}
	inputs := [][]byte{
		[]byte("the quick brown fox jumps over the lazy dog the quick brown fox"),
		bytes.Repeat([]byte("abcde"), 100),
		genText(4096, 7),
		genRandom(2048, 8),
	}
	for _, cfg := range cfgs {
		for ii, input := range inputs {
			hm := NewHashMatcher(cfg)
			hm.Reset(input)
			for pos := 0; pos < len(input); pos++ {
				want := LongestMatch(input, pos, pos-cfg.Window, &cfg, nil)
				got := hm.Find(pos, nil)
				if got != want {
					t.Fatalf("cfg %+v input %d pos %d: hash %+v brute %+v", cfg, ii, pos, got, want)
				}
				hm.Insert(pos)
			}
		}
	}
}

func TestEncodersIdenticalAcrossSearch(t *testing.T) {
	// Run in sequence, the hash-chain encodes also check that a recycled
	// matcher keeps nothing from an earlier input or configuration.
	for i, c := range []struct {
		cfg   Config
		input []byte
	}{
		{Dipperstein(), genText(8192, 3)},
		{CULZSSV1(), genText(300, 4)},
		{CULZSSV2(), bytes.Repeat([]byte("abcde"), 900)},
		{Dipperstein(), genText(2048, 5)},
	} {
		brute, err := EncodeBitPacked(c.input, c.cfg, SearchBrute, nil)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := EncodeBitPacked(c.input, c.cfg, SearchHashChain, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(brute, hash) {
			t.Fatalf("case %d: brute and hash-chain streams differ", i)
		}
	}
}

func TestHashChainEncodersConcurrent(t *testing.T) {
	// Concurrent encoders each take their own matcher from the pool.
	cfg := CULZSSV1()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		input := genText(3000+500*g, int64(g))
		want, err := EncodeByteAligned(input, cfg, SearchBrute, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := EncodeByteAligned(input, cfg, SearchHashChain, nil)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d run %d: hash-chain stream differs (err %v)", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func roundTripBitPacked(t *testing.T, input []byte, cfg Config, search Search) []byte {
	t.Helper()
	comp, err := EncodeBitPacked(input, cfg, search, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeBitPacked(comp, len(input), cfg)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, input) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(input), len(got))
	}
	return comp
}

func roundTripByteAligned(t *testing.T, input []byte, cfg Config, search Search) []byte {
	t.Helper()
	comp, err := EncodeByteAligned(input, cfg, search, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeByteAligned(comp, len(input), cfg)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, input) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(input), len(got))
	}
	return comp
}

func genText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"the", "compression", "window", "lzss", "cuda", "thread", "block", "memory", "kernel", "data"}
	var sb strings.Builder
	for sb.Len() < n {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	return []byte(sb.String()[:n])
}

func genRandom(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestRoundTripsAcrossConfigsAndInputs(t *testing.T) {
	cfgs := []Config{Dipperstein(), CULZSSV1(), CULZSSV2(), {Window: 256, MaxMatch: 20, MinMatch: 3},
		// The widest bit-packed fields, with the most distance and the
		// most length per token.
		{Window: 1 << 16, MaxMatch: 1<<16 + 2, MinMatch: 3}, {Window: 1, MaxMatch: 1<<16 + 2, MinMatch: 3}}
	inputs := map[string][]byte{
		"empty":    {},
		"single":   {42},
		"two":      {1, 2},
		"runs":     bytes.Repeat([]byte{'a'}, 1000),
		"zeros":    make([]byte, 200_000),
		"period20": bytes.Repeat([]byte("abcdefghijklmnopqrst"), 50),
		"text":     genText(4096, 11),
		"random":   genRandom(4096, 12),
		"all_bytes": func() []byte {
			b := make([]byte, 256)
			for i := range b {
				b[i] = byte(i)
			}
			return b
		}(),
		"short_match": []byte("ababab"),
	}
	for _, cfg := range cfgs {
		for name, input := range inputs {
			comp := roundTripBitPacked(t, input, cfg, SearchBrute)
			if len(input) > 0 && len(comp) > MaxEncodedLenBitPacked(len(input), cfg) {
				t.Errorf("cfg %+v %s: bit-packed %d exceeds bound %d", cfg, name, len(comp), MaxEncodedLenBitPacked(len(input), cfg))
			}
			if bound := MaxDecodedLenBitPacked(len(comp), cfg); len(input) > bound {
				t.Errorf("cfg %+v %s: %d bit-packed bytes decode to %d, over the bound %d", cfg, name, len(comp), len(input), bound)
			}
			roundTripBitPacked(t, input, cfg, SearchHashChain)
			if cfg.byteAlignedOK() != nil {
				continue // Dipperstein's 4 KiB window has no byte-aligned form
			}
			comp = roundTripByteAligned(t, input, cfg, SearchBrute)
			if len(comp) > MaxEncodedLenByteAligned(len(input)) {
				t.Errorf("cfg %+v %s: byte-aligned %d exceeds bound %d", cfg, name, len(comp), MaxEncodedLenByteAligned(len(input)))
			}
			roundTripByteAligned(t, input, cfg, SearchHashChain)
		}
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	input := bytes.Repeat([]byte("abcdefghijklmnopqrst"), 200) // period-20, the paper's custom set
	cfg := CULZSSV2()
	comp, err := EncodeByteAligned(input, cfg, SearchBrute, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(comp)) / float64(len(input))
	if ratio > 0.10 {
		t.Fatalf("V2 ratio on period-20 data = %.2f, want well under 0.10", ratio)
	}
	// V1's 18-byte lookahead compresses the same data noticeably worse
	// (Table II last row: 13.9%% vs 6.34%%).
	compV1, err := EncodeByteAligned(input, CULZSSV1(), SearchBrute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(compV1) <= len(comp) {
		t.Fatalf("V1 (%d) should be larger than V2 (%d) on period-20 data", len(compV1), len(comp))
	}
}

func TestDecodeBitPackedErrors(t *testing.T) {
	cfg := CULZSSV1()
	input := genText(512, 5)
	comp, err := EncodeBitPacked(input, cfg, SearchBrute, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation.
	if _, err := DecodeBitPacked(comp[:len(comp)/2], len(input), cfg); err == nil {
		t.Fatal("accepted truncated stream")
	}
	// Declared length longer than the stream expands to.
	if _, err := DecodeBitPacked(comp, len(input)+1000, cfg); err == nil {
		t.Fatal("accepted over-long declared length")
	}
	// A coded token whose distance reaches before output start.
	bad, err := EncodeBitPacked(nil, cfg, SearchBrute, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = bad
	w := []byte{0b10000000} // flag=1 then garbage distance bits, truncated
	if _, err := DecodeBitPacked(w, 10, cfg); err == nil {
		t.Fatal("accepted garbage stream")
	}
}

func TestDecodeByteAlignedErrors(t *testing.T) {
	cfg := CULZSSV1()
	input := genText(512, 6)
	comp, err := EncodeByteAligned(input, cfg, SearchBrute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeByteAligned(comp[:len(comp)/2], len(input), cfg); err == nil {
		t.Fatal("accepted truncated stream")
	}
	if _, err := DecodeByteAligned(nil, 1, cfg); err == nil {
		t.Fatal("accepted empty stream for nonzero length")
	}
	// First token coded with distance 1 but no produced output.
	bad := []byte{0b10000000, 0, 0}
	if _, err := DecodeByteAligned(bad, 10, cfg); err == nil {
		t.Fatal("accepted forward-referencing stream")
	}
	// Match overruns the declared original length.
	pre := []byte{0b01000000, 'a', 0, 250} // literal 'a' then 253-byte match, originalLen 5
	if _, err := DecodeByteAligned(pre, 5, cfg); err == nil {
		t.Fatal("accepted overrunning match")
	}
}

func TestParseTokensByteAligned(t *testing.T) {
	cfg := CULZSSV1()
	input := []byte("abcabcabcabc")
	comp, err := EncodeByteAligned(input, cfg, SearchBrute, nil)
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := ParseTokensByteAligned(comp, len(input), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: literals a, b, c then one coded token of length 9.
	if len(tokens) != 4 {
		t.Fatalf("tokens = %+v", tokens)
	}
	if tokens[3].Match.Length != 9 || tokens[3].Match.Distance != 3 {
		t.Fatalf("final token = %+v", tokens[3])
	}
	// Re-serialising the parsed tokens reproduces the stream.
	again, err := AppendTokensByteAligned(nil, tokens, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, comp) {
		t.Fatal("token re-serialisation differs")
	}
}

func TestAppendTokensByteAlignedRangeChecks(t *testing.T) {
	cfg := CULZSSV1()
	if _, err := AppendTokensByteAligned(nil, []Token{{Coded: true, Match: Match{Distance: 300, Length: 5}}}, &cfg); err == nil {
		t.Fatal("accepted out-of-range distance")
	}
	if _, err := AppendTokensByteAligned(nil, []Token{{Coded: true, Match: Match{Distance: 10, Length: 2}}}, &cfg); err == nil {
		t.Fatal("accepted sub-minimum length")
	}
}

func TestHashMatcherMaxChain(t *testing.T) {
	cfg := Config{Window: 4096, MaxMatch: 18, MinMatch: 3}
	hm := NewHashMatcher(cfg)
	data := bytes.Repeat([]byte("abc"), 2000)
	hm.Reset(data)
	for pos := 0; pos < 3000; pos++ {
		hm.Insert(pos)
	}
	hm.SetMaxChain(1)
	m := hm.Find(3000, nil)
	if m.Length == 0 {
		t.Fatal("bounded chain found nothing on trivially matchable data")
	}
}
