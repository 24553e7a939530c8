package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/metrics"
	"syscall"
	"time"

	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/format"
)

// writeChunk is how much plaintext each Writer.Write call hands over: the
// buffer size io.Copy uses, as a gateway relaying a socket would.
const writeChunk = 32 << 10

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocNow is the cumulative heap allocation in bytes: the quantity
// runtime.MemStats.TotalAlloc reports, read without stopping the world.
func allocNow() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// record is one complete record of a framed stream: a segment frame, or a
// parity frame.
type record struct {
	start, end int64
	parity     bool
}

// wireTee is the Writer's destination. It keeps the stream bytes and feeds
// them through a format.BoundaryScanner, noting where each record lies and
// when each segment frame is complete on the destination.
type wireTee struct {
	wire    []byte
	scan    *format.BoundaryScanner
	records []record    // the stream's records, in order
	emitted []time.Time // completion time of each segment frame, in order
}

func (t *wireTee) reset() {
	t.wire = t.wire[:0]
	t.scan = format.NewBoundaryScanner()
	t.records = t.records[:0]
	t.emitted = t.emitted[:0]
}

func (t *wireTee) Write(p []byte) (int, error) {
	segs, pars, good := t.scan.Records(), t.scan.ParityRecords(), t.scan.GoodOffset()
	t.wire = append(t.wire, p...)
	if _, err := t.scan.Write(p); err != nil {
		return 0, err
	}
	ds, dp := t.scan.Records()-segs, t.scan.ParityRecords()-pars
	switch {
	case ds+dp == 0:
		return len(p), nil
	case ds+dp > 1:
		// The Writer hands over one record per Write. The record
		// boundaries, and hop's burst placement on them, rely on it.
		return 0, fmt.Errorf("one Write completed %d records, want at most 1", ds+dp)
	}
	if ds == 1 {
		t.emitted = append(t.emitted, time.Now())
	}
	t.records = append(t.records, record{start: good, end: t.scan.GoodOffset(), parity: dp == 1})
	return len(p), nil
}

// verifier checks decoded bytes against the expected plaintext as they
// stream in, op by op, without holding the output. An op (a segment, or a
// whole message) fails when any of its bytes differs or never arrives.
type verifier struct {
	want []byte
	op   int // bytes per op
	off  int
	bad  int // failed ops so far
	last int // index of the op counted last, -1 before any
}

func newVerifier(want []byte, op int) *verifier {
	return &verifier{want: want, op: op, last: -1}
}

func (v *verifier) ops() int { return (len(v.want) + v.op - 1) / v.op }

func (v *verifier) mark(i int) {
	if i != v.last {
		v.bad++
		v.last = i
	}
}

func (v *verifier) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if v.off >= len(v.want) { // surplus output fails the last op
			v.mark(v.ops() - 1)
			v.off += len(p)
			break
		}
		i := v.off / v.op
		k := min(len(p), (i+1)*v.op-v.off, len(v.want)-v.off)
		if !bytes.Equal(p[:k], v.want[v.off:v.off+k]) {
			v.mark(i)
		}
		v.off += k
		p = p[k:]
	}
	return n, nil
}

// failures closes the check after the decode ended with err: every op not
// fully delivered fails, and an error after complete, correct output
// fails one op.
func (v *verifier) failures(err error) int {
	if v.off < len(v.want) {
		for i := v.off / v.op; i < v.ops(); i++ {
			v.mark(i)
		}
	} else if err != nil && v.bad == 0 {
		v.mark(v.ops() - 1)
	}
	return v.bad
}

// passStats is what one timed pass through the real Writer and Reader
// measured.
type passStats struct {
	plain, wire, parityBytes int64
	encWall, decWall         time.Duration
	encCPU, decCPU           time.Duration
	encAlloc, decAlloc       uint64
	ops, failed              int
	latMS                    []float64 // per-op latency
	// admit and emit are, per op, when the segment entered the Writer's
	// pipeline and when its frame was complete on the destination.
	admit, emit         []time.Time
	bursts, repaired    int // hop: injected bursts, frames rebuilt from parity
	unrepaired          int // damaged regions the Reader had to skip
	retries, degraded   int
	poolHits, poolTotal int64
	errs                []error
}

// runner drives the real streaming API over one workload.
type runner struct {
	w      *workload
	params core.Params
	tee    wireTee
	damage []byte // hop: the damaged copy of the wire
	// src and bursts are what the last stream pass decoded, for redecode.
	src    []byte
	bursts int
	copy   []byte // decode copy buffer
}

func newRunner(w *workload, workers int) *runner {
	return &runner{w: w, params: core.Params{HostWorkers: workers}, copy: make([]byte, writeChunk)}
}

// pass runs one timed pass: encode, then decode with every byte checked.
func (r *runner) pass() passStats {
	ps := passStats{plain: r.w.plainBytes(), ops: r.w.ops()}
	if r.w.stream() {
		r.streamPass(&ps)
	} else {
		r.messagesPass(&ps)
	}
	return ps
}

func (r *runner) streamPass(ps *passStats) {
	if err := r.encodeStream(ps); err != nil {
		ps.failed = ps.ops
		ps.errs = append(ps.errs, err)
		return
	}
	layout := r.tee.records
	for _, rec := range layout {
		if rec.parity {
			ps.parityBytes += rec.end - rec.start
		}
	}
	src := r.tee.wire
	if r.w.parity.K > 0 {
		r.damage = append(r.damage[:0], r.tee.wire...)
		bursts := placeBursts(r.w.burstSeed, layout, r.w.parity.K)
		for _, b := range bursts {
			for i, m := range b.mask {
				r.damage[b.off+int64(i)] ^= m
			}
		}
		ps.bursts = len(bursts)
		src = r.damage
	}
	r.src, r.bursts = src, ps.bursts
	r.decodeStream(src, ps)
}

// redecode decodes the last stream pass's wire again: one more decode
// sample for the same encode.
func (r *runner) redecode(last passStats) passStats {
	ps := passStats{plain: last.plain, ops: last.ops, wire: last.wire, parityBytes: last.parityBytes, bursts: r.bursts}
	r.decodeStream(r.src, &ps)
	return ps
}

// encodeStream writes one pass's input through a Writer into the tee,
// noting when each segment was handed over and admitted, and when its
// frame was complete on the destination.
func (r *runner) encodeStream(ps *passStats) error {
	w := r.w
	n := w.ops()
	complete := make([]time.Time, n)
	ps.admit = make([]time.Time, n)
	r.tee.reset()

	c0, a0, t0 := cpuNow(), allocNow(), time.Now()
	wr := core.NewWriterOptions(&r.tee, r.params, core.StreamOptions{
		SegmentSize: w.segSize, Codec: codec.Auto, Parity: w.parity,
	})
	var err error
	for off := 0; off < len(w.input) && err == nil; off += writeChunk {
		end := min(off+writeChunk, len(w.input))
		done := end%w.segSize == 0
		if done {
			complete[end/w.segSize-1] = time.Now()
		}
		_, err = wr.Write(w.input[off:end])
		if done {
			ps.admit[end/w.segSize-1] = time.Now()
		}
	}
	if cerr := wr.Close(); err == nil {
		err = cerr
	}
	ps.encWall, ps.encCPU, ps.encAlloc = time.Since(t0), cpuNow()-c0, allocNow()-a0

	st := wr.Stats()
	ps.retries, ps.degraded = st.Retries, st.Degraded
	ps.wire = int64(len(r.tee.wire))
	if err != nil {
		return err
	}
	ps.emit = append([]time.Time(nil), r.tee.emitted...)
	for i := 0; i < n && i < len(ps.emit); i++ {
		ps.latMS = append(ps.latMS, ms(ps.emit[i].Sub(complete[i])))
	}
	return nil
}

// decodeStream decodes one stream pass through the Reader, checking every
// byte; Repair is on when the workload carries parity.
func (r *runner) decodeStream(src []byte, ps *passStats) {
	w := r.w
	v := newVerifier(w.input, w.segSize)
	c0, a0, t0 := cpuNow(), allocNow(), time.Now()
	rd, err := core.NewReaderOptions(bytes.NewReader(src), r.params, core.ReaderOptions{Repair: w.parity.K > 0})
	if err == nil {
		_, err = io.CopyBuffer(v, rd, r.copy)
	}
	ps.decWall, ps.decCPU, ps.decAlloc = time.Since(t0), cpuNow()-c0, allocNow()-a0
	if err != nil {
		ps.errs = append(ps.errs, err)
	}
	ps.failed += v.failures(err)
	if rd == nil {
		return
	}
	for _, rse := range rd.RepairedSegments() {
		ps.repaired += len(rse.Frames)
	}
	ps.unrepaired = len(rd.CorruptSegments())
	st := rd.Stats()
	ps.poolHits, ps.poolTotal = st.PoolHits, st.PoolHits+st.PoolMisses
}

// messagesPass sends each message as its own stream, compressing and then
// decompressing it before the next.
func (r *runner) messagesPass(ps *passStats) {
	for _, m := range r.w.msgs {
		r.tee.reset()
		c0, a0, t0 := cpuNow(), allocNow(), time.Now()
		wr := core.NewWriterOptions(&r.tee, r.params, core.StreamOptions{Codec: codec.Auto})
		_, err := wr.Write(m)
		tClose := time.Now()
		if cerr := wr.Close(); err == nil {
			err = cerr
		}
		t1 := time.Now()
		c1, a1 := cpuNow(), allocNow()
		ps.encWall += t1.Sub(t0)
		ps.encCPU += c1 - c0
		ps.encAlloc += a1 - a0
		ps.wire += int64(len(r.tee.wire))
		st := wr.Stats()
		ps.retries += st.Retries
		ps.degraded += st.Degraded
		if err == nil && len(r.tee.emitted) != 1 {
			err = fmt.Errorf("message stream carried %d segment frames, want 1", len(r.tee.emitted))
		}
		if err != nil {
			ps.failed++
			ps.errs = append(ps.errs, err)
			continue
		}
		ps.admit = append(ps.admit, tClose)
		ps.emit = append(ps.emit, r.tee.emitted[0])

		v := newVerifier(m, len(m))
		c2, a2, t2 := cpuNow(), allocNow(), time.Now()
		rd, err := core.NewReaderOptions(bytes.NewReader(r.tee.wire), r.params, core.ReaderOptions{})
		if err == nil {
			_, err = io.CopyBuffer(v, rd, r.copy)
		}
		t3 := time.Now()
		ps.decWall += t3.Sub(t2)
		ps.decCPU += cpuNow() - c2
		ps.decAlloc += allocNow() - a2
		ps.latMS = append(ps.latMS, ms(t1.Sub(t0)+t3.Sub(t2)))
		if err != nil {
			ps.errs = append(ps.errs, err)
		}
		ps.failed += v.failures(err)
		if rd != nil {
			st := rd.Stats()
			ps.poolHits += st.PoolHits
			ps.poolTotal += st.PoolHits + st.PoolMisses
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
