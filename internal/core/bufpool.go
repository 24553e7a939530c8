// Buffer recycling for the streaming hot paths. The Writer's original
// bufPool pattern, generalized: one bytePool per buffer population
// (writer segment buffers, reader container buffers, reader plaintext
// buffers), with hit/miss accounting so the allocation discipline is
// observable — through ReaderStats and, when a registry is armed, the
// culzss_bufpool_{hits,misses}_total{pool=...} counters — rather than
// asserted.
package core

import (
	"sync"
	"sync/atomic"

	"culzss/internal/obs"
)

// bytePool recycles byte buffers of one population. The zero pool is
// not ready to use; construct with newBytePool (a nil registry is
// inert, matching the rest of the obs layer).
type bytePool struct {
	pool   sync.Pool
	hits   atomic.Int64
	misses atomic.Int64
	chits  *obs.Counter // nil-inert registry mirrors
	cmiss  *obs.Counter
}

func newBytePool(reg *obs.Registry, name string) *bytePool {
	p := &bytePool{}
	if reg != nil {
		reg.SetHelp("culzss_bufpool_hits_total", "Stream buffer requests served from a recycle pool.")
		reg.SetHelp("culzss_bufpool_misses_total", "Stream buffer requests that had to allocate.")
		p.chits = reg.Counter("culzss_bufpool_hits_total", obs.L("pool", name))
		p.cmiss = reg.Counter("culzss_bufpool_misses_total", obs.L("pool", name))
	}
	return p
}

// get returns a zero-length buffer with capacity of at least capHint: a
// recycled one (see reuse), else a fresh one.
func (p *bytePool) get(capHint int) []byte {
	if b := p.reuse(capHint); b != nil {
		return b
	}
	return make([]byte, 0, capHint)
}

// reuse returns a recycled zero-length buffer with capacity of at least
// capHint, or nil: a miss allocates nothing. A pooled buffer too small
// for the request is dropped (segment and container sizes are
// near-uniform within one stream, so the pool self-corrects instead of
// churning).
func (p *bytePool) reuse(capHint int) []byte {
	if v := p.pool.Get(); v != nil {
		if b := v.([]byte); cap(b) >= capHint {
			p.hits.Add(1)
			p.chits.Inc()
			return b[:0]
		}
	}
	p.misses.Add(1)
	p.cmiss.Inc()
	return nil
}

// put recycles b for a later get or reuse. nil is ignored.
func (p *bytePool) put(b []byte) {
	if b == nil {
		return
	}
	p.pool.Put(b[:0]) //nolint:staticcheck // slice, not pointer: allocation-free enough here
}

// counts reports the pool's lifetime hit/miss totals.
func (p *bytePool) counts() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}
