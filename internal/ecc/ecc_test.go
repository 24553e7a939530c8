package ecc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// randShards builds k deterministic pseudo-random shards of size bytes.
func randShards(t *testing.T, k, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// combinations calls fn with every way to choose n elements of [0, total).
func combinations(total, n int, fn func(pick []int)) {
	pick := make([]int, n)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == n {
			fn(pick)
			return
		}
		for i := start; i < total; i++ {
			pick[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// TestGFMulTableMatchesReference checks every product in the shard
// kernel's table against the log/exp reference.
func TestGFMulTableMatchesReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfMulTable[a][b], gfMul(byte(a), byte(b)); got != want {
				t.Fatalf("gfMulTable[%d][%d] = %d, gfMul = %d", a, b, got, want)
			}
		}
	}
}

// TestMulSliceAddMatchesByteLoop checks the word-at-a-time kernel, and
// its skipped zero tail, against a byte loop over gfMul for every
// scalar, every length from 0 to 67 and zero tails of 0 to 17 bytes.
func TestMulSliceAddMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 256; c++ {
		for n := 0; n <= 67; n++ {
			for tail := 0; tail <= 17; tail++ {
				src := make([]byte, n+tail)
				rng.Read(src[:n])
				dst := make([]byte, n+tail)
				rng.Read(dst)
				want := append([]byte(nil), dst...)
				for i, s := range src {
					want[i] ^= gfMul(byte(c), s)
				}
				mulSliceAdd(dst, src, byte(c))
				if !bytes.Equal(dst, want) {
					t.Fatalf("c=%d len=%d zero tail=%d: got %x, want %x", c, n, tail, dst, want)
				}
			}
		}
	}
}

// TestReconstructAllErasurePatterns proves the MDS property on small
// geometries: for every (k, m) in the grid and EVERY way to erase up to
// m shards, reconstruction restores all of them bit-identically.
func TestReconstructAllErasurePatterns(t *testing.T) {
	for _, geo := range []struct{ k, m int }{
		{1, 1}, {2, 1}, {4, 1}, {3, 2}, {4, 2}, {5, 3}, {4, 4}, {8, 2}, {10, 4},
	} {
		c, err := New(geo.k, geo.m)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", geo.k, geo.m, err)
		}
		data := randShards(t, geo.k, 67, int64(geo.k*100+geo.m))
		parity, err := c.Parity(data)
		if err != nil {
			t.Fatalf("Parity(%d,%d): %v", geo.k, geo.m, err)
		}
		full := append(append([][]byte{}, data...), parity...)
		total := geo.k + geo.m
		for erase := 1; erase <= geo.m; erase++ {
			combinations(total, erase, func(pick []int) {
				shards := make([][]byte, total)
				copy(shards, full)
				for _, p := range pick {
					shards[p] = nil
				}
				if err := c.Reconstruct(shards); err != nil {
					t.Fatalf("k=%d m=%d erased %v: %v", geo.k, geo.m, pick, err)
				}
				for i := range shards {
					if !bytes.Equal(shards[i], full[i]) {
						t.Fatalf("k=%d m=%d erased %v: shard %d differs after reconstruction",
							geo.k, geo.m, pick, i)
					}
				}
			})
		}
	}
}

// TestReconstructTooManyErasures verifies the coder refuses (rather than
// fabricates) when damage exceeds M.
func TestReconstructTooManyErasures(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(t, 4, 32, 9)
	parity, err := c.Parity(data)
	if err != nil {
		t.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	shards[0], shards[2], shards[5] = nil, nil, nil
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("3 erasures with m=2: got %v, want ErrTooFewShards", err)
	}
}

// TestXORFastPathMatchesManualXOR pins the m=1 parity to plain XOR — the
// property the format layer's documentation promises.
func TestXORFastPathMatchesManualXOR(t *testing.T) {
	c, err := New(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(t, 5, 123, 11)
	parity, err := c.Parity(data)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 123)
	for _, d := range data {
		for i := range d {
			want[i] ^= d[i]
		}
	}
	if !bytes.Equal(parity[0], want) {
		t.Fatal("m=1 parity is not the XOR of the data shards")
	}
}

// TestParityDeterministic: same inputs, same parity — repair depends on
// re-encoding being reproducible.
func TestParityDeterministic(t *testing.T) {
	c, err := New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(t, 6, 64, 21)
	p1, err := c.Parity(data)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Parity(data)
	if err != nil {
		t.Fatal(err)
	}
	for j := range p1 {
		if !bytes.Equal(p1[j], p2[j]) {
			t.Fatalf("parity shard %d differs between runs", j)
		}
	}
}

// TestValidation covers the constructor and shard-shape error paths.
func TestValidation(t *testing.T) {
	for _, bad := range []struct{ k, m int }{{0, 1}, {1, 0}, {-1, 2}, {200, 100}} {
		if _, err := New(bad.k, bad.m); !errors.Is(err, ErrShardCount) {
			t.Errorf("New(%d,%d): got %v, want ErrShardCount", bad.k, bad.m, err)
		}
	}
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Parity([][]byte{{1}, {2}}); !errors.Is(err, ErrShardCount) {
		t.Errorf("short data: got %v, want ErrShardCount", err)
	}
	if _, err := c.Parity([][]byte{{1, 2}, {3}, {4, 5}}); !errors.Is(err, ErrShardSize) {
		t.Errorf("ragged data: got %v, want ErrShardSize", err)
	}
	if err := c.Reconstruct(make([][]byte, 4)); !errors.Is(err, ErrShardCount) {
		t.Errorf("wrong shard slice length: got %v, want ErrShardCount", err)
	}
	if err := c.Reconstruct(make([][]byte, 5)); !errors.Is(err, ErrShardSize) {
		t.Errorf("all-nil shards: got %v, want ErrShardSize", err)
	}
	ragged := [][]byte{{1, 2}, {3, 4}, {5, 6}, {7}, nil}
	if err := c.Reconstruct(ragged); !errors.Is(err, ErrShardSize) {
		t.Errorf("ragged reconstruct: got %v, want ErrShardSize", err)
	}
}

// TestReconstructNoOp: a full shard set returns unchanged.
func TestReconstructNoOp(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(t, 2, 16, 5)
	parity, err := c.Parity(data)
	if err != nil {
		t.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	before := make([][]byte, len(shards))
	for i, s := range shards {
		before[i] = append([]byte{}, s...)
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], before[i]) {
			t.Fatalf("shard %d mutated by no-op reconstruct", i)
		}
	}
}

// TestGFTables sanity-checks the field: a*inv(a) == 1 and mul/div agree.
func TestGFTables(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
		for b := 1; b < 256; b++ {
			p := gfMul(byte(a), byte(b))
			if gfDiv(p, byte(b)) != byte(a) {
				t.Fatalf("div(mul(%d,%d), %d) != %d", a, b, b, a)
			}
		}
	}
}

func BenchmarkParity8Plus2(b *testing.B) {
	c, _ := New(8, 2)
	data := make([][]byte, 8)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = make([]byte, 64<<10)
		rng.Read(data[i])
	}
	b.SetBytes(8 * 64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Parity(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParityXOR8Plus1(b *testing.B) {
	c, _ := New(8, 1)
	data := make([][]byte, 8)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = make([]byte, 64<<10)
		rng.Read(data[i])
	}
	b.SetBytes(8 * 64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Parity(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShortShardsMatchPadded pins the zero-tail rule: a data shard
// shorter than the shard length gives the same kernel output, parity row
// and reconstruction as its zero-padded copy, for coefficient 0, 1 and
// every other, and the rows ReconstructData reports as used hold over
// what it rebuilt.
func TestShortShardsMatchPadded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const size = 67
	for c := 0; c < 256; c++ {
		for _, n := range []int{0, 1, 7, 8, 9, 40, size} {
			short := make([]byte, n)
			rng.Read(short)
			padded := make([]byte, size)
			copy(padded, short)
			a, b := make([]byte, size), make([]byte, size)
			rng.Read(a)
			copy(b, a)
			mulSliceAdd(a, short, byte(c))
			mulSliceAdd(b, padded, byte(c))
			if !bytes.Equal(a, b) {
				t.Fatalf("c=%d: a %d-byte shard and its padded copy give different products", c, n)
			}
		}
	}
	// m=1 is the all-ones row; the Cauchy rows of m>1 hold the others.
	for _, geo := range []struct{ k, m int }{{1, 1}, {3, 1}, {4, 2}, {5, 3}, {8, 4}} {
		c, err := New(geo.k, geo.m)
		if err != nil {
			t.Fatal(err)
		}
		short := make([][]byte, geo.k)
		padded := make([][]byte, geo.k)
		full := rng.Intn(geo.k) // one shard is as long as the row
		for i := range short {
			n := 1 + rng.Intn(size)
			if i == full {
				n = size
			}
			short[i] = make([]byte, n)
			rng.Read(short[i])
			padded[i] = make([]byte, size)
			copy(padded[i], short[i])
		}
		parity, err := c.Parity(padded)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]byte, size)
		for j := range parity {
			if err := c.ParityRow(row, short, j); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(row, parity[j]) {
				t.Fatalf("k=%d m=%d: parity row %d over short shards differs from the padded one", geo.k, geo.m, j)
			}
		}
		for erase := 1; erase <= geo.m; erase++ {
			combinations(geo.k+geo.m, erase, func(pick []int) {
				shards := append(append([][]byte{}, short...), parity...)
				want := append(append([][]byte{}, padded...), parity...)
				for _, p := range pick {
					shards[p], want[p] = nil, nil
				}
				used, err := c.ReconstructData(shards, size)
				if err != nil {
					t.Fatalf("k=%d m=%d erased %v: %v", geo.k, geo.m, pick, err)
				}
				if err := c.Reconstruct(want); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < geo.k; i++ {
					if shards[i] == nil || !bytes.Equal(shards[i], padded[i][:len(shards[i])]) || !bytes.Equal(want[i], padded[i]) {
						t.Fatalf("k=%d m=%d erased %v: data shard %d differs from the padded reconstruction", geo.k, geo.m, pick, i)
					}
				}
				for _, p := range pick {
					if p >= geo.k && shards[p] != nil {
						t.Fatalf("k=%d m=%d erased %v: ReconstructData filled parity slot %d", geo.k, geo.m, pick, p-geo.k)
					}
				}
				for _, j := range used {
					if shards[geo.k+j] == nil {
						t.Fatalf("k=%d m=%d erased %v: used parity row %d is missing", geo.k, geo.m, pick, j)
					}
					if err := c.ParityRow(row, shards[:geo.k], j); err != nil || !bytes.Equal(row, parity[j]) {
						t.Fatalf("k=%d m=%d erased %v: used parity row %d does not hold", geo.k, geo.m, pick, j)
					}
				}
			})
		}
	}
	c, _ := New(2, 1)
	if err := c.ParityRow(make([]byte, 2), [][]byte{{1, 2, 3}, {4}}, 0); !errors.Is(err, ErrShardSize) {
		t.Errorf("data shard longer than the row: got %v, want ErrShardSize", err)
	}
	if err := c.ParityRow(make([]byte, 2), [][]byte{{1}, {4}}, 1); !errors.Is(err, ErrShardCount) {
		t.Errorf("parity row out of range: got %v, want ErrShardCount", err)
	}
	if _, err := c.ReconstructData([][]byte{nil, {1}, {2, 3}}, 1); !errors.Is(err, ErrShardSize) {
		t.Errorf("parity shard longer than size: got %v, want ErrShardSize", err)
	}
}
