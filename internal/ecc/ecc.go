// Package ecc is the erasure-coding layer behind self-healing CLZS
// streams: a systematic Reed–Solomon coder over GF(256) that turns K
// equal-length data shards into M parity shards such that ANY K of the
// K+M shards reconstruct the rest. The frame layer (internal/format)
// feeds it the encoded bytes of segment frames, so a parity group whose
// damage stays within M frames repairs bit-identically.
//
// The parity rows come from a Cauchy matrix (parity[j][i] = 1/(x_j ⊕
// y_i) with distinct x and y sets), whose every square submatrix is
// invertible — the MDS property that makes "any K shards suffice" a
// theorem rather than a hope. For M=1 the single parity row is all ones,
// so encoding and repair degenerate to pure XOR; Parity and Reconstruct
// special-case that path (the common k+1 configuration pays no table
// lookups).
//
// ParityRow and ReconstructData take data shards shorter than the shard
// length as zero-padded to it: a caller with frames of different lengths
// passes them as they are, and the kernel skips the zero tail anyway.
//
// The coder is stateless after construction and safe for concurrent use.
package ecc

import (
	"errors"
	"fmt"
)

// MaxShards bounds k+m: GF(256) runs out of distinct evaluation points
// past 256 shards.
const MaxShards = 256

// Coder errors.
var (
	// ErrShardCount marks a k/m pair the field cannot support.
	ErrShardCount = errors.New("ecc: invalid shard count")
	// ErrShardSize marks shards of unequal (or zero) length.
	ErrShardSize = errors.New("ecc: shards must be non-empty and equal length")
	// ErrTooFewShards marks a reconstruction attempt with fewer than K
	// surviving shards — the damage exceeds what the parity can repair.
	ErrTooFewShards = errors.New("ecc: too few shards to reconstruct")
)

// Coder encodes and repairs one (K, M) geometry.
type Coder struct {
	k, m int
	// rows is the m×k parity half of the systematic encoding matrix:
	// parity[j] = Σ_i rows[j][i] · data[i].
	rows [][]byte
}

// New returns a coder for k data shards and m parity shards.
func New(k, m int) (*Coder, error) {
	if k < 1 || m < 1 || k+m > MaxShards {
		return nil, fmt.Errorf("%w: k=%d m=%d (need k,m >= 1 and k+m <= %d)", ErrShardCount, k, m, MaxShards)
	}
	c := &Coder{k: k, m: m, rows: make([][]byte, m)}
	for j := 0; j < m; j++ {
		c.rows[j] = make([]byte, k)
		for i := 0; i < k; i++ {
			// Cauchy construction: x_j = k+j and y_i = i are disjoint
			// sets, so x_j ⊕ y_i is never zero and every square
			// submatrix of the matrix 1/(x_j ⊕ y_i) is invertible.
			c.rows[j][i] = gfInv(byte(k+j) ^ byte(i))
		}
	}
	if m == 1 {
		// XOR fast path: a single parity row of ones is MDS on its own
		// (any k of the k+1 shards still span), and mulSliceAdd turns
		// coefficient 1 into plain XOR — no field math on the hot path.
		for i := range c.rows[0] {
			c.rows[0][i] = 1
		}
	}
	return c, nil
}

// K returns the data-shard count.
func (c *Coder) K() int { return c.k }

// M returns the parity-shard count.
func (c *Coder) M() int { return c.m }

// Parity computes the m parity shards over k equal-length data shards.
func (c *Coder) Parity(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("%w: got %d data shards, coder wants %d", ErrShardCount, len(data), c.k)
	}
	size, err := shardSize(data)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, c.m)
	for j := range parity {
		parity[j] = make([]byte, size)
		c.encodeRow(parity[j], data, j)
	}
	return parity, nil
}

// ParityRow overwrites dst with parity shard j of data. Every data shard
// counts as zero-padded to len(dst), so none may be longer.
func (c *Coder) ParityRow(dst []byte, data [][]byte, j int) error {
	if len(data) != c.k || j < 0 || j >= c.m {
		return fmt.Errorf("%w: %d data shards and parity row %d, coder has k=%d m=%d", ErrShardCount, len(data), j, c.k, c.m)
	}
	if len(dst) == 0 {
		return ErrShardSize
	}
	for _, d := range data {
		if len(d) > len(dst) {
			return fmt.Errorf("%w: data shard of %d bytes, parity row of %d", ErrShardSize, len(d), len(dst))
		}
	}
	c.encodeRow(dst, data, j)
	return nil
}

// encodeRow sets dst to parity row j over data, each shard no longer
// than dst.
func (c *Coder) encodeRow(dst []byte, data [][]byte, j int) {
	clear(dst)
	for i, d := range data {
		mulSliceAdd(dst, d, c.rows[j][i])
	}
}

// Reconstruct fills in the missing (nil) shards of a full k+m shard
// slice in place: shards[0..k) are data, shards[k..k+m) parity. At least
// k shards must be present and all present shards must share one length.
// On success every slot is non-nil and the data shards are bit-identical
// to what Parity was originally computed over.
func (c *Coder) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("%w: got %d shards, coder wants %d", ErrShardCount, len(shards), c.k+c.m)
	}
	var size int
	for _, s := range shards {
		if s == nil {
			continue
		}
		if size == 0 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: lengths %d and %d", ErrShardSize, size, len(s))
		}
	}
	if _, err := c.ReconstructData(shards, size); err != nil {
		return err
	}
	// With all data shards in hand, missing parity is a re-encode.
	for j := 0; j < c.m; j++ {
		if shards[c.k+j] == nil {
			shards[c.k+j] = make([]byte, size)
			c.encodeRow(shards[c.k+j], shards[:c.k], j)
		}
	}
	return nil
}

// ReconstructData rebuilds the missing (nil) data shards, shards[0..k),
// in place from the present data and parity shards; it reads the parity
// slots, shards[k..k+m), and leaves them as they are. A parity shard is
// size bytes. A data shard may be shorter and counts as zero-padded to
// size; a rebuilt one is size bytes. At least k shards must be present.
//
// It returns the parity rows the decode used as equations, ascending.
// Those rows hold over the rebuilt data by construction, so a caller
// checking the group against its parity need only recompute the others.
func (c *Coder) ReconstructData(shards [][]byte, size int) ([]int, error) {
	if len(shards) != c.k+c.m {
		return nil, fmt.Errorf("%w: got %d shards, coder wants %d", ErrShardCount, len(shards), c.k+c.m)
	}
	if size <= 0 {
		return nil, ErrShardSize
	}
	present, missing := 0, 0
	for i, s := range shards {
		switch {
		case s == nil:
			if i < c.k {
				missing++
			}
			continue
		case i < c.k && len(s) > size, i >= c.k && len(s) != size:
			return nil, fmt.Errorf("%w: shard %d is %d bytes, shard length %d", ErrShardSize, i, len(s), size)
		}
		present++
	}
	if present < c.k {
		return nil, fmt.Errorf("%w: %d of %d present, need %d", ErrTooFewShards, present, c.k+c.m, c.k)
	}
	if missing == 0 {
		return nil, nil
	}

	if c.m == 1 {
		// XOR fast path: exactly one shard can be missing (present >= k
		// guarantees it), and it is the XOR of everything else.
		out := make([]byte, size)
		hole := -1
		for i, s := range shards {
			if s == nil {
				hole = i
				continue
			}
			mulSliceAdd(out, s, 1)
		}
		shards[hole] = out
		return []int{0}, nil
	}

	// Choose k surviving shards (data first — identity rows keep the
	// matrix sparse) and build the k×k submatrix of the systematic
	// encoding matrix their rows form.
	subM := make([][]byte, 0, c.k)
	subS := make([][]byte, 0, c.k)
	used := make([]int, 0, missing)
	for i := 0; i < c.k && len(subM) < c.k; i++ {
		if shards[i] == nil {
			continue
		}
		row := make([]byte, c.k)
		row[i] = 1
		subM = append(subM, row)
		subS = append(subS, shards[i])
	}
	for j := 0; j < c.m && len(subM) < c.k; j++ {
		if shards[c.k+j] == nil {
			continue
		}
		row := make([]byte, c.k)
		copy(row, c.rows[j])
		subM = append(subM, row)
		subS = append(subS, shards[c.k+j])
		used = append(used, j)
	}
	if !invertMatrix(subM) {
		return nil, fmt.Errorf("ecc: submatrix not invertible (corrupted shard set)")
	}
	// data[i] = Σ_r subM[i][r] · subS[r], but only the missing rows need
	// computing.
	for i := 0; i < c.k; i++ {
		if shards[i] != nil {
			continue
		}
		out := make([]byte, size)
		for r := 0; r < c.k; r++ {
			mulSliceAdd(out, subS[r], subM[i][r])
		}
		shards[i] = out
	}
	return used, nil
}

// shardSize validates equal non-zero lengths and returns the common one.
func shardSize(shards [][]byte) (int, error) {
	if len(shards) == 0 || len(shards[0]) == 0 {
		return 0, ErrShardSize
	}
	size := len(shards[0])
	for _, s := range shards[1:] {
		if len(s) != size {
			return 0, fmt.Errorf("%w: lengths %d and %d", ErrShardSize, size, len(s))
		}
	}
	return size, nil
}
