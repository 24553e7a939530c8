// GF(256) arithmetic for the Reed–Solomon coder. The field is the usual
// AES-adjacent GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the same field every production erasure coder uses, so shard
// bytes are field elements and shard XOR is field addition.
//
// Scalar arithmetic goes through exp/log tables built once at init. The
// shard kernel, which multiplies whole shards by one scalar, reads a
// full product table instead: one lookup per byte, no zero branch.
package ecc

import "encoding/binary"

// gfPoly is the primitive polynomial generating the field.
const gfPoly = 0x11d

// gfExp holds alpha^i for i in [0, 510) so gfMul can skip the mod-255
// reduction of the log sum; gfLog is its inverse on [1, 255].
// gfMulTable[a][b] is a·b, so row c is the whole map x -> c·x.
var (
	gfExp      [510]byte
	gfLog      [256]byte
	gfMulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfExp[i+255] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for a := range gfMulTable {
		for b := range gfMulTable[a] {
			gfMulTable[a][b] = gfMul(byte(a), byte(b))
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b (b must be nonzero).
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ecc: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a nonzero element.
func gfInv(a byte) byte { return gfDiv(1, a) }

// mulSliceAdd computes dst[i] ^= c*src[i] — the accumulate step of a
// matrix row applied to shards — eight bytes per step. c == 0 is a
// no-op; c == 1 degenerates to plain XOR, which is the m=1 fast path's
// whole computation; any other c reads row c of gfMulTable. The all-zero
// tail of src is skipped (c·0 = 0), and a src shorter than dst counts as
// zero-padded to it, changing only dst[:len(src)]: a frame shorter than
// its group's longest costs only its real bytes, padded or not.
func mulSliceAdd(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	n := len(src)
	for n >= 8 && binary.LittleEndian.Uint64(src[n-8:]) == 0 {
		n -= 8
	}
	for n > 0 && src[n-1] == 0 {
		n--
	}
	src, dst = src[:n], dst[:n]
	if c == 1 {
		for len(src) >= 8 {
			binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
			src, dst = src[8:], dst[8:]
		}
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	t := &gfMulTable[c]
	for len(src) >= 8 {
		s := binary.LittleEndian.Uint64(src)
		p := uint64(t[byte(s)]) | uint64(t[byte(s>>8)])<<8 | uint64(t[byte(s>>16)])<<16 | uint64(t[byte(s>>24)])<<24 |
			uint64(t[byte(s>>32)])<<32 | uint64(t[byte(s>>40)])<<40 | uint64(t[byte(s>>48)])<<48 | uint64(t[s>>56])<<56
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^p)
		src, dst = src[8:], dst[8:]
	}
	for i, s := range src {
		dst[i] ^= t[s]
	}
}

// invertMatrix inverts an n×n GF(256) matrix in place via Gauss–Jordan
// elimination, returning false when the matrix is singular. The coder
// only inverts matrices the Cauchy construction guarantees invertible,
// so false here means corrupted inputs, not a library bug.
func invertMatrix(m [][]byte) bool {
	n := len(m)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		// Find a pivot row at or below col.
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return false
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		// Normalise the pivot row.
		if p := m[col][col]; p != 1 {
			ip := gfInv(p)
			for i := 0; i < n; i++ {
				m[col][i] = gfMul(m[col][i], ip)
				inv[col][i] = gfMul(inv[col][i], ip)
			}
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			c := m[r][col]
			for i := 0; i < n; i++ {
				m[r][i] ^= gfMul(c, m[col][i])
				inv[r][i] ^= gfMul(c, inv[col][i])
			}
		}
	}
	for i := range m {
		copy(m[i], inv[i])
	}
	return true
}
