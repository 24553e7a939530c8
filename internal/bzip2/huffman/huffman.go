// Package huffman implements canonical, length-limited Huffman coding for
// the BZIP2 baseline's entropy stage.
//
// Codes are canonical: only the code lengths travel in the stream; both
// sides reconstruct identical codes by assigning values in (length,
// symbol) order. Lengths are limited to the caller's cap, at most
// MaxCodeLen, the way bzip2 does it — when a tree comes out too deep,
// frequencies are halved (keeping them positive) and the tree is rebuilt.
package huffman

import (
	"errors"
	"fmt"
	"sort"

	"culzss/internal/bitio"
)

// MaxCodeLen is the longest code the coder will produce, matching bzip2's
// 20-bit limit (its BZ_MAX_CODE_LEN is larger only to hold scratch).
const MaxCodeLen = 20

// ErrBadCode is returned when a decoder meets a bit pattern outside the
// code, or a code table is malformed.
var ErrBadCode = errors.New("huffman: invalid code")

// BuildLengths computes canonical code lengths for the given symbol
// frequencies, none longer than maxLen bits. Symbols with zero frequency
// get length 0 (absent). If only one symbol is present it gets length 1.
// maxLen is at most MaxCodeLen and must leave room for the present
// symbols, or damping never ends; bzip2 caps 258 symbols at 17 or 20.
func BuildLengths(freq []int64, maxLen int) []uint8 {
	f := make([]int64, len(freq))
	copy(f, freq)
	for {
		lengths, depth := buildOnce(f)
		if depth <= maxLen {
			return lengths
		}
		// bzip2's trick: damp the distribution and retry.
		for i, v := range f {
			if v > 0 {
				f[i] = 1 + v/2
			}
		}
	}
}

// buildOnce builds unrestricted Huffman code lengths with the two-queue
// method and reports the deepest code.
func buildOnce(freq []int64) ([]uint8, int) {
	type node struct {
		weight      int64
		left, right int // node indices, -1 for leaves
		sym         int
	}
	var leaves []node
	for s, w := range freq {
		if w > 0 {
			leaves = append(leaves, node{weight: w, left: -1, right: -1, sym: s})
		}
	}
	lengths := make([]uint8, len(freq))
	switch len(leaves) {
	case 0:
		return lengths, 0
	case 1:
		lengths[leaves[0].sym] = 1
		return lengths, 1
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].weight != leaves[j].weight {
			return leaves[i].weight < leaves[j].weight
		}
		return leaves[i].sym < leaves[j].sym
	})

	nodes := make([]node, 0, 2*len(leaves))
	nodes = append(nodes, leaves...)
	var q1, q2 []int // leaf queue, internal queue (both ascending)
	for i := range leaves {
		q1 = append(q1, i)
	}
	pop := func() int {
		switch {
		case len(q1) == 0:
			i := q2[0]
			q2 = q2[1:]
			return i
		case len(q2) == 0:
			i := q1[0]
			q1 = q1[1:]
			return i
		case nodes[q1[0]].weight <= nodes[q2[0]].weight:
			i := q1[0]
			q1 = q1[1:]
			return i
		default:
			i := q2[0]
			q2 = q2[1:]
			return i
		}
	}
	for len(q1)+len(q2) > 1 {
		a, b := pop(), pop()
		nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, left: a, right: b})
		q2 = append(q2, len(nodes)-1)
	}
	root := pop()

	// Depth-first depth assignment.
	maxLen := 0
	type item struct{ idx, depth int }
	stack := []item{{root, 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[it.idx]
		if nd.left < 0 {
			lengths[nd.sym] = uint8(it.depth)
			if it.depth > maxLen {
				maxLen = it.depth
			}
			continue
		}
		stack = append(stack, item{nd.left, it.depth + 1}, item{nd.right, it.depth + 1})
	}
	return lengths, maxLen
}

// CanonicalCodes assigns canonical code values to the given lengths:
// shorter codes first, ties broken by symbol order.
func CanonicalCodes(lengths []uint8) ([]uint32, error) {
	var countPerLen [MaxCodeLen + 1]int
	maxLen := 0
	for s, l := range lengths {
		if int(l) > MaxCodeLen {
			return nil, fmt.Errorf("%w: symbol %d has length %d", ErrBadCode, s, l)
		}
		if l > 0 {
			countPerLen[l]++
			if int(l) > maxLen {
				maxLen = int(l)
			}
		}
	}
	// Kraft check: over-subscribed tables are invalid.
	var k uint64
	for l := 1; l <= maxLen; l++ {
		k += uint64(countPerLen[l]) << uint(maxLen-l)
	}
	if maxLen > 0 && k > 1<<uint(maxLen) {
		return nil, fmt.Errorf("%w: over-subscribed code", ErrBadCode)
	}
	var nextCode [MaxCodeLen + 2]uint32
	code := uint32(0)
	for l := 1; l <= maxLen; l++ {
		code = (code + uint32(countPerLen[l-1])) << 1
		nextCode[l] = code
	}
	codes := make([]uint32, len(lengths))
	for s, l := range lengths {
		if l > 0 {
			codes[s] = nextCode[l]
			nextCode[l]++
		}
	}
	return codes, nil
}

// Encoder writes symbols of one canonical table.
type Encoder struct {
	lengths []uint8
	codes   []uint32
}

// NewEncoder builds an encoder for the given code lengths.
func NewEncoder(lengths []uint8) (*Encoder, error) {
	codes, err := CanonicalCodes(lengths)
	if err != nil {
		return nil, err
	}
	return &Encoder{lengths: lengths, codes: codes}, nil
}

// Encode appends the code for sym to w.
func (e *Encoder) Encode(w *bitio.Writer, sym int) error {
	if sym < 0 || sym >= len(e.lengths) || e.lengths[sym] == 0 {
		return fmt.Errorf("%w: symbol %d not in table", ErrBadCode, sym)
	}
	w.WriteBits(uint64(e.codes[sym]), uint(e.lengths[sym]))
	return nil
}

// Decoder reads symbols of one canonical table using the limit/base
// method: per length l it knows the largest code value and the index of
// the first symbol of that length.
type Decoder struct {
	maxLen  int
	limit   [MaxCodeLen + 1]uint32 // largest code of each length
	base    [MaxCodeLen + 1]uint32 // first code of each length
	offset  [MaxCodeLen + 1]int    // index into perm of first symbol of each length
	perm    []int                  // symbols in canonical order
	present [MaxCodeLen + 1]bool
}

// NewDecoder builds a decoder for the given code lengths.
func NewDecoder(lengths []uint8) (*Decoder, error) {
	codes, err := CanonicalCodes(lengths)
	if err != nil {
		return nil, err
	}
	d := &Decoder{}
	type sc struct {
		sym  int
		len  uint8
		code uint32
	}
	var all []sc
	for s, l := range lengths {
		if l > 0 {
			all = append(all, sc{s, l, codes[s]})
			if int(l) > d.maxLen {
				d.maxLen = int(l)
			}
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("%w: empty table", ErrBadCode)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].len != all[j].len {
			return all[i].len < all[j].len
		}
		return all[i].code < all[j].code
	})
	d.perm = make([]int, len(all))
	for i, x := range all {
		d.perm[i] = x.sym
	}
	idx := 0
	for l := 1; l <= d.maxLen; l++ {
		start := idx
		first, last := uint32(0), uint32(0)
		found := false
		for idx < len(all) && int(all[idx].len) == l {
			if !found {
				first = all[idx].code
				found = true
			}
			last = all[idx].code
			idx++
		}
		if found {
			d.present[l] = true
			d.base[l] = first
			d.limit[l] = last
			d.offset[l] = start
		}
	}
	return d, nil
}

// Decode reads one symbol from r.
func (d *Decoder) Decode(r *bitio.Reader) (int, error) {
	code := uint32(0)
	for l := 1; l <= d.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if d.present[l] && code >= d.base[l] && code <= d.limit[l] {
			return d.perm[d.offset[l]+int(code-d.base[l])], nil
		}
	}
	return 0, ErrBadCode
}
