package lzss

import (
	"math"
	"sync"
)

// HashMatcher is a hash-chain longest-match searcher: the paper's §VII
// "improved searching with better search algorithms" future-work item.
// It finds exactly matches of length >= MinMatch that the brute scan would
// find (greedy-equivalent output), but visits only window positions whose
// first MinMatch bytes hash like the lookahead, so it is orders of
// magnitude faster on large windows.
//
// Usage: Reset with the input, then for each position either Find (which
// does not insert) followed by Insert for every consumed position, or use
// the package-level encoders which drive it correctly.
type HashMatcher struct {
	cfg      Config
	maxChain int
	data     []byte
	head     []int32
	prev     []int32
}

const (
	hashBits = 15
	hashSize = 1 << hashBits
	noPos    = int32(-1)
	// DefaultMaxChain bounds the number of chain links visited per search.
	// 0 means unlimited. The default is generous enough that output is
	// identical to brute force on all the paper's datasets at the preset
	// window sizes.
	DefaultMaxChain = 4096
)

// NewHashMatcher returns a matcher for the given configuration.
func NewHashMatcher(cfg Config) *HashMatcher {
	m := &HashMatcher{cfg: cfg, maxChain: DefaultMaxChain,
		head: make([]int32, hashSize)}
	for i := range m.head {
		m.head[i] = noPos
	}
	return m
}

// Reset points the matcher at new input and clears all chains.
func (m *HashMatcher) Reset(data []byte) {
	m.data = data
	if cap(m.prev) < len(data) {
		m.prev = make([]int32, len(data))
	}
	m.prev = m.prev[:len(data)]
	for i := range m.head {
		m.head[i] = noPos
	}
}

// hash3 hashes the three bytes at data[pos:pos+3].
func (m *HashMatcher) hash3(pos int) uint32 {
	d := m.data
	h := uint32(d[pos])<<10 ^ uint32(d[pos+1])<<5 ^ uint32(d[pos+2])
	h *= 2654435761 // Knuth multiplicative mix
	return h >> (32 - hashBits)
}

// Insert records position pos in the chains so later searches can find it.
// Positions with fewer than MinMatch bytes remaining are ignored.
func (m *HashMatcher) Insert(pos int) {
	if pos+3 > len(m.data) {
		return
	}
	h := m.hash3(pos)
	m.prev[pos] = m.head[h]
	m.head[h] = int32(pos)
}

// Find returns the longest match at pos against previously inserted
// positions within the window, preferring the shortest distance on ties
// (matching LongestMatch). It does not insert pos.
func (m *HashMatcher) Find(pos int, stats *SearchStats) Match {
	cfg := &m.cfg
	data := m.data
	maxLen := cfg.MaxMatch
	if rem := len(data) - pos; rem < maxLen {
		maxLen = rem
	}
	if stats != nil {
		stats.Positions++
	}
	if maxLen < cfg.MinMatch {
		return Match{}
	}
	limit := pos - cfg.Window
	var best Match
	chainLen := 0
	var offs, cmps int64
	for cand := m.head[m.hash3(pos)]; cand != noPos && int(cand) >= limit; cand = m.prev[cand] {
		if m.maxChain > 0 && chainLen >= m.maxChain {
			break
		}
		chainLen++
		offs++
		start := int(cand)
		// Check the byte one past the current best first: cheap rejection.
		if best.Length > 0 && data[start+best.Length] != data[pos+best.Length] {
			cmps++
			continue
		}
		l := 0
		for l < maxLen && data[start+l] == data[pos+l] {
			l++
		}
		cmps += int64(l + 1)
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

// Search selects the longest-match strategy for the CPU encoders.
type Search int

// Search strategies.
const (
	// SearchBrute is the linear window scan of the paper's serial
	// implementation (and of both GPU kernels).
	SearchBrute Search = iota
	// SearchHashChain is the hash-chain accelerated search (§VII future
	// work). Output is byte-identical to SearchBrute whenever the chain
	// bound is not hit and ties resolve identically.
	SearchHashChain
)

// String implements fmt.Stringer.
func (s Search) String() string {
	switch s {
	case SearchBrute:
		return "brute"
	case SearchHashChain:
		return "hashchain"
	default:
		return "search(?)"
	}
}

// searchIndexed is SearchBrute for the byte-aligned greedy encoder: the
// sliding windowIndex returns the word scan's matches and counters.
const searchIndexed Search = -1

// matcher adapts the strategies behind one greedy-tokenizer-facing shape.
type matcher struct {
	search Search
	cfg    *Config
	data   []byte
	hm     *HashMatcher
	wi     *windowIndex
	// nextInsert tracks which positions the hash matcher has indexed.
	nextInsert int
}

// hashMatchers recycles the hash-chain encoders' matchers: the 128 KiB
// head table and the chain array would otherwise be allocated afresh for
// every input, which dominates allocation on short inputs such as the
// codec selector's probe.
var hashMatchers sync.Pool

func newMatcher(search Search, cfg *Config, data []byte) *matcher {
	if search == searchIndexed && len(data) >= math.MaxInt32 {
		search = SearchBrute // beyond the index's int32 positions
	}
	m := &matcher{search: search, cfg: cfg, data: data}
	switch search {
	case SearchHashChain:
		hm, _ := hashMatchers.Get().(*HashMatcher)
		if hm == nil {
			hm = NewHashMatcher(*cfg)
		}
		hm.cfg, hm.maxChain = *cfg, DefaultMaxChain
		hm.Reset(data)
		m.hm = hm
	case searchIndexed:
		m.wi = windowIndexes.Get().(*windowIndex)
		m.wi.reset(cfg, data)
	}
	return m
}

// release returns the pooled search state; m must not be used after.
func (m *matcher) release() {
	if m.hm != nil {
		m.hm.data = nil
		hashMatchers.Put(m.hm)
	}
	if m.wi != nil {
		m.wi.cfg, m.wi.data = nil, nil
		windowIndexes.Put(m.wi)
	}
}

// find returns the longest match at pos, ensuring hash chains cover every
// position before pos.
func (m *matcher) find(pos int, stats *SearchStats) Match {
	switch m.search {
	case SearchBrute:
		return LongestMatch(m.data, pos, pos-m.cfg.Window, m.cfg, stats)
	case searchIndexed:
		return m.wi.longestMatch(pos, stats)
	}
	for ; m.nextInsert < pos; m.nextInsert++ {
		m.hm.Insert(m.nextInsert)
	}
	return m.hm.Find(pos, stats)
}
