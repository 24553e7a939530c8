package huffman

import (
	"math/rand"
	"testing"

	"culzss/internal/bitio"
)

func TestBuildLengthsBasics(t *testing.T) {
	// Uniform four symbols -> all length 2.
	l := BuildLengths([]int64{10, 10, 10, 10}, MaxCodeLen)
	for s, got := range l {
		if got != 2 {
			t.Fatalf("symbol %d length %d, want 2", s, got)
		}
	}
	// Skewed: most frequent symbol gets the shortest code.
	l = BuildLengths([]int64{100, 10, 10, 1}, MaxCodeLen)
	if l[0] >= l[3] {
		t.Fatalf("frequent symbol not shorter: %v", l)
	}
	// Absent symbols get zero.
	l = BuildLengths([]int64{5, 0, 7}, MaxCodeLen)
	if l[1] != 0 || l[0] == 0 || l[2] == 0 {
		t.Fatalf("absence handling wrong: %v", l)
	}
	// Single present symbol gets length 1.
	l = BuildLengths([]int64{0, 42, 0}, MaxCodeLen)
	if l[1] != 1 {
		t.Fatalf("single symbol length = %d, want 1", l[1])
	}
	// Empty.
	l = BuildLengths([]int64{0, 0}, MaxCodeLen)
	if l[0] != 0 || l[1] != 0 {
		t.Fatalf("empty table lengths: %v", l)
	}
}

func TestBuildLengthsKraftEquality(t *testing.T) {
	// A complete Huffman code satisfies Kraft with equality.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 2
		freq := make([]int64, n)
		nz := 0
		for i := range freq {
			if rng.Intn(3) > 0 {
				freq[i] = int64(rng.Intn(10000) + 1)
				nz++
			}
		}
		if nz < 2 {
			continue
		}
		lengths := BuildLengths(freq, MaxCodeLen)
		var k float64
		for _, l := range lengths {
			if l > 0 {
				k += 1 / float64(uint64(1)<<l)
			}
		}
		if k < 0.999999 || k > 1.000001 {
			t.Fatalf("trial %d: Kraft sum %v != 1 (lengths %v)", trial, k, lengths)
		}
	}
}

func TestBuildLengthsRespectsLimit(t *testing.T) {
	// Fibonacci-ish frequencies force deep trees; the damping retry must
	// cap the depth at the container's MaxCodeLen and at the .bz2
	// writer's 17 bits.
	freq := make([]int64, 40)
	a, b := int64(1), int64(1)
	for i := range freq {
		freq[i] = a
		a, b = b, a+b
	}
	for _, maxLen := range []int{MaxCodeLen, 17} {
		lengths := BuildLengths(freq, maxLen)
		for s, l := range lengths {
			if l == 0 {
				t.Fatalf("cap %d: symbol %d dropped", maxLen, s)
			}
			if int(l) > maxLen {
				t.Fatalf("cap %d: symbol %d length %d exceeds it", maxLen, s, l)
			}
		}
	}
}

func TestBuildLengthsOptimality(t *testing.T) {
	// Expected code length must beat the trivial fixed-width code on a
	// skewed distribution.
	freq := []int64{1000, 500, 100, 50, 10, 5, 1, 1}
	lengths := BuildLengths(freq, MaxCodeLen)
	var total, weighted int64
	for s, f := range freq {
		total += f
		weighted += f * int64(lengths[s])
	}
	if avg := float64(weighted) / float64(total); avg >= 3.0 {
		t.Fatalf("average code length %v not better than fixed 3-bit", avg)
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	freq := []int64{50, 30, 10, 5, 3, 1, 1}
	lengths := BuildLengths(freq, MaxCodeLen)
	codes, err := CanonicalCodes(lengths)
	if err != nil {
		t.Fatal(err)
	}
	for a := range codes {
		for b := range codes {
			if a == b || lengths[a] == 0 || lengths[b] == 0 || lengths[a] > lengths[b] {
				continue
			}
			// code[a] must not be a prefix of code[b].
			if codes[a] == codes[b]>>(lengths[b]-lengths[a]) {
				t.Fatalf("code %d (%b/%d) is a prefix of %d (%b/%d)",
					a, codes[a], lengths[a], b, codes[b], lengths[b])
			}
		}
	}
}

func TestCanonicalCodesRejectsBad(t *testing.T) {
	if _, err := CanonicalCodes([]uint8{25}); err == nil {
		t.Fatal("accepted over-limit length")
	}
	// Over-subscribed: three codes of length 1.
	if _, err := CanonicalCodes([]uint8{1, 1, 1}); err == nil {
		t.Fatal("accepted over-subscribed code")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(250) + 2
		freq := make([]int64, n)
		for i := range freq {
			freq[i] = int64(rng.Intn(1000))
		}
		freq[0]++ // ensure at least one present
		freq[n-1]++
		lengths := BuildLengths(freq, MaxCodeLen)
		enc, err := NewEncoder(lengths)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(lengths)
		if err != nil {
			t.Fatal(err)
		}

		var syms []int
		for s, f := range freq {
			if f > 0 {
				for k := 0; k < 1+int(f%7); k++ {
					syms = append(syms, s)
				}
			}
		}
		rng.Shuffle(len(syms), func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })

		w := bitio.NewWriter(0)
		for _, s := range syms {
			if err := enc.Encode(w, s); err != nil {
				t.Fatal(err)
			}
		}
		r := bitio.NewReader(w.Bytes())
		for i, want := range syms {
			got, err := dec.Decode(r)
			if err != nil {
				t.Fatalf("trial %d sym %d: %v", trial, i, err)
			}
			if got != want {
				t.Fatalf("trial %d sym %d: got %d want %d", trial, i, got, want)
			}
		}
	}
}

func TestEncodeRejectsAbsentSymbol(t *testing.T) {
	lengths := BuildLengths([]int64{5, 0, 5}, MaxCodeLen)
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(0)
	if err := enc.Encode(w, 1); err == nil {
		t.Fatal("encoded absent symbol")
	}
	if err := enc.Encode(w, 99); err == nil {
		t.Fatal("encoded out-of-range symbol")
	}
}

func TestDecoderErrors(t *testing.T) {
	if _, err := NewDecoder([]uint8{0, 0}); err == nil {
		t.Fatal("built decoder for empty table")
	}
	lengths := BuildLengths([]int64{5, 5, 5, 5}, MaxCodeLen)
	dec, err := NewDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated stream.
	r := bitio.NewReader(nil)
	if _, err := dec.Decode(r); err == nil {
		t.Fatal("decoded from empty stream")
	}
}
