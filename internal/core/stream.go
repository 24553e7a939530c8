// Framed streaming: the bounded-memory io.Writer / io.Reader adapters over
// the block compressor.
//
// CULZSS is a block compressor — a single container needs its whole input
// up front for the chunk table. The paper's gateway scenario ("heavy
// traffic from millions of users") cannot buffer whole transfers, so the
// Writer cuts the plaintext into SegmentSize segments, compresses each
// into an ordinary container through the bounded, order-preserving
// worker pipeline of pipeline.go (the §VII stream-pipelining idea:
// segment i+1 compresses while segment i is being emitted), and frames
// the containers with internal/format's stream records. Peak memory is
// O(SegmentSize × HostWorkers) regardless of stream length; emission
// order is the write order.
//
// The Reader auto-detects the input: a framed stream ("CLZS") decodes
// incrementally through the same pipeline; a bare container ("CLZ1") is
// decompressed whole, preserving the previous adapter behaviour.
package core

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"culzss/internal/codec"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/health"
	"culzss/internal/lzss"
	"culzss/internal/obs"
)

// writerMetrics holds the Writer's pre-resolved instruments. With
// Params.Obs nil every field is nil and every call inert, so the
// disabled Writer pays nothing beyond nil tests. Counters increment in
// the emitter, the same single site that updates WriterStats, so a fresh
// registry's totals reconcile with Stats() exactly.
type writerMetrics struct {
	segments *obs.Counter
	retries  *obs.Counter
	degraded *obs.Counter
	errors   *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	tracer   *obs.Tracer

	// reg and byCodec back the per-codec segment counter
	// (culzss_segments_total{codec=}): series materialise lazily, on the
	// first segment a codec actually emits, so a fixed-codec stream
	// exports exactly one series. Touched only by the emitter goroutine.
	reg     *obs.Registry
	byCodec map[format.Codec]*obs.Counter
}

func newWriterMetrics(reg *obs.Registry) writerMetrics {
	if reg == nil {
		return writerMetrics{}
	}
	reg.SetHelp("culzss_writer_segments_total", "Segments the Writer pipeline emitted (including failed ones).")
	reg.SetHelp("culzss_writer_retries_total", "Extra GPU attempts beyond each segment's first.")
	reg.SetHelp("culzss_writer_degraded_total", "Segments that fell back to the CPU encoder.")
	reg.SetHelp("culzss_writer_errors_total", "Segments that failed the stream.")
	reg.SetHelp("culzss_writer_bytes_in_total", "Plaintext bytes of emitted segments.")
	reg.SetHelp("culzss_writer_bytes_out_total", "Framed compressed bytes written (segment frames only).")
	reg.SetHelp("culzss_segments_total", "Segments emitted, labelled by the codec that encoded them.")
	return writerMetrics{
		segments: reg.Counter("culzss_writer_segments_total"),
		retries:  reg.Counter("culzss_writer_retries_total"),
		degraded: reg.Counter("culzss_writer_degraded_total"),
		errors:   reg.Counter("culzss_writer_errors_total"),
		bytesIn:  reg.Counter("culzss_writer_bytes_in_total"),
		bytesOut: reg.Counter("culzss_writer_bytes_out_total"),
		tracer:   reg.Tracer(),
		reg:      reg,
	}
}

// segmentsFor returns the per-codec segment counter, materialising the
// labelled series on first use. Emitter goroutine only.
func (m *writerMetrics) segmentsFor(c format.Codec) *obs.Counter {
	if m.reg == nil {
		return nil
	}
	if ctr, ok := m.byCodec[c]; ok {
		return ctr
	}
	label := c.String()
	if eng, ok := codec.Lookup(c); ok {
		label = eng.Name() // the registry's short name, matching the CLI flag
	}
	ctr := m.reg.Counter("culzss_segments_total", obs.L("codec", label))
	if m.byCodec == nil {
		m.byCodec = make(map[format.Codec]*obs.Counter)
	}
	m.byCodec[c] = ctr
	return ctr
}

// readerMetrics is the Reader-side counterpart. Counters increment at
// the delivery site, the same single site that updates ReaderStats, so
// a fresh registry's totals reconcile with Stats() exactly.
type readerMetrics struct {
	segments *obs.Counter
	bytesOut *obs.Counter
	corrupt  *obs.Counter
	inflight *obs.Gauge
	tracer   *obs.Tracer
}

func newReaderMetrics(reg *obs.Registry) readerMetrics {
	if reg == nil {
		return readerMetrics{}
	}
	reg.SetHelp("culzss_reader_segments_total", "Framed segments decoded and served.")
	reg.SetHelp("culzss_reader_bytes_out_total", "Plaintext bytes served from framed segments.")
	reg.SetHelp("culzss_reader_corrupt_segments_total", "Damaged regions recorded in salvage mode.")
	reg.SetHelp("culzss_reader_inflight_segments", "Segments admitted to the decode pipeline and not yet delivered.")
	return readerMetrics{
		segments: reg.Counter("culzss_reader_segments_total"),
		bytesOut: reg.Counter("culzss_reader_bytes_out_total"),
		corrupt:  reg.Counter("culzss_reader_corrupt_segments_total"),
		inflight: reg.Gauge("culzss_reader_inflight_segments"),
		tracer:   reg.Tracer(),
	}
}

// ErrClosed is returned by Writer.Write after Close.
var ErrClosed = errors.New("core: writer is closed")

// DefaultSegmentSize is the Writer's default segment granularity. 1 MiB
// keeps per-worker buffers small while amortising the per-frame header
// and giving the GPU versions enough chunks per launch to fill the device.
const DefaultSegmentSize = 1 << 20

// StreamOptions tune the framed stream layer.
type StreamOptions struct {
	// SegmentSize is the uncompressed bytes per segment; 0 means
	// DefaultSegmentSize. Smaller segments lower latency and peak memory,
	// larger segments improve ratio (more window context) and shrink
	// framing overhead.
	SegmentSize int
	// Retry bounds the per-segment retry/degrade policy for the GPU
	// versions. The zero value means up to 3 attempts with 1ms..50ms
	// jittered exponential backoff, then CPU fallback.
	Retry RetryPolicy
	// Context, when non-nil, cancels the Writer's pipeline: Write and
	// Close fail with the context's error once it is done, and in-flight
	// segment compressions stop between retry attempts. nil means
	// context.Background().
	Context context.Context
	// MaxInFlight is the admission bound: at most this many segments may
	// be in the pipeline at once (Write blocks beyond it — that
	// backpressure is the Writer's memory bound). 0 means HostWorkers.
	// Values below HostWorkers also shrink the worker pool: admission is
	// the bound, not worker count.
	MaxInFlight int
	// SegmentDeadline bounds one segment's total time on the GPU path
	// (all retry attempts and, under Params.Health, the whole
	// redispatch ladder). A segment that exceeds it degrades to the
	// deterministic CPU encoder instead of failing the stream — the
	// stream trades latency for completeness, never the reverse.
	// 0 disables the per-segment deadline.
	SegmentDeadline time.Duration
	// Resume, when non-nil, continues an existing framed stream instead of
	// starting one: the Writer skips the stream header, numbers its first
	// segment NextIndex, and folds Total/CRC into the trailer so the final
	// stream is indistinguishable from an uninterrupted run. The caller
	// owns the file surgery (truncating to a verified frame boundary and
	// positioning dst there — see internal/durable); SegmentSize must
	// match the original stream's.
	Resume *ResumeState
	// Parity selects self-healing redundancy: after every Parity.K data
	// frames the Writer emits Parity.M parity frames carrying an erasure
	// code over the group's exact frame bytes, so a salvage+repair Reader
	// can reconstruct up to M damaged or missing frames per group
	// bit-identically instead of skipping them. The zero value disables
	// parity and the output is byte-identical to a parity-less stream.
	// Overhead is roughly M/K of the compressed size plus small headers.
	Parity ParityConfig
	// DrainOnCancel selects graceful drain: when Context is cancelled,
	// Write stops admitting new data (it returns the context's error as
	// before) but every segment already accepted — in flight or buffered
	// — is still compressed (degrading to the CPU encoder, which needs no
	// device) and Close emits a valid trailer covering all accepted
	// bytes. Without it, cancellation abandons in-flight work and Close
	// reports the context's error.
	DrainOnCancel bool
	// Codec selects the segment engine by registry name ("v1", "v2",
	// "cpu", "pthread", "bzip2", "raw"), or codec.Auto (also the meaning
	// of "") for the adaptive per-segment selector (a cheap sample probe
	// picks V1, V2, or raw-store segment by segment). Each segment's
	// choice is recorded in its embedded container's codec byte — the
	// frame layer carries no extra state, so any Reader dispatches per
	// frame.
	Codec string
	// OnSegment, when non-nil, observes every emitted segment frame in
	// stream order from the emitter goroutine — the Writer-side mirror of
	// ReaderOptions.OnSegment. The bench harness uses it to collect
	// per-segment codec choices and device reports without re-reading the
	// stream. It must not block: the emitter is the pipeline's only
	// in-order stage.
	OnSegment func(SegmentReport)
}

// SegmentReport describes one emitted segment frame, delivered through
// StreamOptions.OnSegment in stream order.
type SegmentReport struct {
	// Index is the segment's frame index.
	Index int
	// RawLen is the segment's plaintext length.
	RawLen int
	// FrameLen is the encoded frame's total length (frame header
	// included) as written to the stream.
	FrameLen int
	// Codec identifies the engine that encoded this segment — under
	// StreamOptions.Codec "auto" it varies per segment.
	Codec format.Codec
	// Retries is the number of extra device attempts the segment consumed.
	Retries int
	// Degraded reports that the segment fell back to the engine's CPU twin.
	Degraded bool
	// Report is the device performance report; nil for host-encoded
	// (CPU-codec, raw, or degraded) segments.
	Report *gpu.Report
}

// ParityConfig is StreamOptions.Parity: the K+M geometry of the
// stream's parity groups.
type ParityConfig struct {
	// K is the number of data frames per parity group; 0 disables
	// parity. Bounded by format.MaxParityK.
	K int
	// M is the number of parity frames per group: 1 selects the XOR fast
	// path (repairs any single loss), larger M Reed–Solomon (any M
	// losses). Bounded by format.MaxParityM; must be ≥ 1 when K > 0.
	M int
}

func (c ParityConfig) validate() error {
	if c.K == 0 && c.M == 0 {
		return nil
	}
	if c.K < 1 || c.K > format.MaxParityK {
		return fmt.Errorf("core: parity K %d out of range [1,%d]", c.K, format.MaxParityK)
	}
	if c.M < 1 || c.M > format.MaxParityM {
		return fmt.Errorf("core: parity M %d out of range [1,%d]", c.M, format.MaxParityM)
	}
	return nil
}

// ResumeState carries the stream position a resumed Writer continues
// from. It is what durable.ScanTail recovers from an interrupted file:
// the index the next segment frame must carry, the plaintext bytes
// already represented by the surviving frames, and the incremental
// CRC-32 (format.Checksum32Update state) over that plaintext.
type ResumeState struct {
	// NextIndex is the index of the next segment frame to emit — the
	// number of complete frames already on disk.
	NextIndex int
	// Total is the plaintext byte count covered by the surviving frames.
	Total int
	// CRC is the running plaintext CRC-32 over those Total bytes.
	CRC uint32
	// GroupFrames, for a parity-bearing stream, holds the exact encoded
	// bytes of the surviving data frames of the trailing incomplete
	// parity group (the frames after the last parity run). A resumed
	// Writer seeds its group accumulator with them so the group's parity
	// eventually covers the pre-crash frames too, keeping the finished
	// stream byte-equivalent to an uninterrupted run. Empty when the cut
	// landed on a group boundary or the stream carries no parity.
	GroupFrames [][]byte
}

// RetryPolicy bounds how hard the Writer fights for a segment before
// giving up on the GPU path: the gpu ladder's policy (attempts, jittered
// backoff, CPU degrade), which one-shot Compress rides at its defaults.
type RetryPolicy = gpu.RetryPolicy

// WriterStats reports the Writer's retry/degrade activity, and — when a
// health supervisor is armed via Params.Health — the supervisor's
// device-pool counters over this Writer's lifetime.
type WriterStats struct {
	// Segments is the number of segments the pipeline processed.
	Segments int
	// Retries is the total number of extra GPU attempts beyond each
	// segment's first.
	Retries int
	// Degraded is the number of segments that fell back to the CPU
	// encoder after exhausting their GPU attempts (or, supervised, after
	// the whole pool was quarantined or the segment deadline expired).
	Degraded int
	// ParityFrames is the number of parity frames emitted (0 without
	// StreamOptions.Parity).
	ParityFrames int
	// Resumed is the number of segment frames inherited from an
	// interrupted stream (StreamOptions.Resume's NextIndex); 0 for a
	// fresh stream.
	Resumed int
	// Committed is the number of segment frames known to have reached
	// stable storage. The core Writer never fsyncs, so it reports 0; the
	// durable layer fills it in.
	Committed int
	// TimedOut counts watchdog-cut device operations; Redispatched counts
	// work re-routed to a sibling device after a failure; BreakerOpens
	// counts circuit-breaker Open transitions; Quarantined is the number
	// of devices currently quarantined. All zero without a supervisor.
	TimedOut, Redispatched, BreakerOpens, Quarantined int
}

func (o StreamOptions) segmentSize() int {
	if o.SegmentSize <= 0 {
		return DefaultSegmentSize
	}
	return o.SegmentSize
}

// segJob is one segment travelling through the Writer's pipeline.
type segJob struct {
	index int
	data  []byte    // uncompressed segment (buf-pool owned)
	res   segResult // filled by the worker
}

type segResult struct {
	container []byte
	codec     format.Codec // the engine that produced the container
	rep       *gpu.Report  // device report; nil for host-encoded segments
	retries   int          // extra GPU attempts this segment consumed
	degraded  bool         // segment fell back to the engine's CPU twin
	err       error
}

// Writer is an io.WriteCloser emitting a framed compressed stream.
//
// Segments are compressed concurrently by HostWorkers workers while a
// single emitter goroutine writes frames strictly in order, so the output
// is deterministic for a given input and parameter set. Write blocks when
// MaxInFlight+1 segments (default HostWorkers+1) are already admitted,
// which is what bounds peak memory.
//
// Close flushes the final partial segment, writes the stream trailer, and
// tears the worker pool down. A second Close is a no-op returning nil
// (matching gzip.Writer); Write after Close returns ErrClosed.
type Writer struct {
	dst     io.Writer
	params  Params
	opts    StreamOptions
	segSize int
	ctx     context.Context

	// healthBase is the supervisor's counter baseline at construction;
	// Stats reports deltas against it (the pool is often shared).
	healthBase health.Snapshot

	met      writerMetrics
	segStart time.Time // when the current partial segment began accumulating

	started bool
	closed  bool
	buf     []byte // current partial segment; len < segSize
	index   int    // next segment index
	total   int    // total plaintext bytes accepted
	crc     uint32 // running CRC-32 of the plaintext

	// Parity accumulator (emitter goroutine only, after construction):
	// the exact encoded bytes of the open group's data frames, and the
	// index of the group's first frame.
	parityGroup [][]byte
	parityFirst int

	pipe    pipeline[segJob] // compression workers feeding the in-order emitter
	emitted chan struct{}
	bufPool *bytePool

	mu   sync.Mutex
	werr error // first pipeline error (compression or underlying write)

	statsMu sync.Mutex // serialises merges into params.Stats

	wstatsMu sync.Mutex
	wstats   WriterStats

	// in-flight accounting, exercised by the bounded-memory test.
	flightMu  sync.Mutex
	inFlight  int // bytes of segment buffers currently in the pipeline
	maxFlight int
}

// NewWriter returns a framed-stream Writer with default StreamOptions
// (1 MiB segments).
func NewWriter(dst io.Writer, p Params) *Writer {
	return NewWriterOptions(dst, p, StreamOptions{})
}

// NewWriterOptions returns a framed-stream Writer with explicit stream
// options.
func NewWriterOptions(dst io.Writer, p Params, o StreamOptions) *Writer {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	w := &Writer{
		dst:     dst,
		params:  p,
		opts:    o,
		segSize: o.segmentSize(),
		ctx:     ctx,
		met:     newWriterMetrics(p.Obs),
	}
	if p.Health != nil {
		w.healthBase = p.Health.Snapshot()
	}
	if err := o.Parity.validate(); err != nil {
		w.setErr(err)
	}
	if o.Codec != "" && o.Codec != codec.Auto {
		if _, ok := codec.ByName(o.Codec); !ok {
			w.setErr(fmt.Errorf("core: unknown codec %q (registered: %v, or %q)",
				o.Codec, codec.Names(), codec.Auto))
		}
	}
	if r := o.Resume; r != nil {
		w.index = r.NextIndex
		w.total = r.Total
		w.crc = r.CRC
		w.wstats.Resumed = r.NextIndex
		if o.Parity.K > 0 {
			w.parityGroup = append([][]byte(nil), r.GroupFrames...)
			w.parityFirst = r.NextIndex - len(r.GroupFrames)
			if w.parityFirst < 0 {
				w.setErr(fmt.Errorf("core: resume carries %d group frames but only %d segments precede it",
					len(r.GroupFrames), r.NextIndex))
			}
		}
	}
	w.bufPool = newBytePool(p.Obs, "writer-segment")
	return w
}

// Stats returns a snapshot of the Writer's retry/degrade counters, plus
// the supervisor's device-pool counters (as deltas over this Writer's
// lifetime) when Params.Health is armed. It is safe to call concurrently
// with Write and after Close.
func (w *Writer) Stats() WriterStats {
	w.wstatsMu.Lock()
	st := w.wstats
	w.wstatsMu.Unlock()
	if sup := w.params.Health; sup != nil {
		snap := sup.Snapshot()
		st.TimedOut = snap.TimedOut - w.healthBase.TimedOut
		st.Redispatched = snap.Redispatched - w.healthBase.Redispatched
		st.BreakerOpens = snap.BreakerOpens - w.healthBase.BreakerOpens
		st.Quarantined = snap.Quarantined
	}
	return st
}

// start lazily writes the stream header and spins up the pipeline.
func (w *Writer) start() {
	if w.started {
		return
	}
	w.started = true
	// A resumed stream already carries its header; emitting another would
	// corrupt it mid-stream.
	if w.opts.Resume == nil {
		if _, err := w.dst.Write(format.AppendStreamHeader(make([]byte, 0, 16), w.segSize)); err != nil {
			w.setErr(fmt.Errorf("core: writing stream header: %w", err))
		}
	}
	// The admission bound (StreamOptions.MaxInFlight, default
	// HostWorkers) counts the segments queued for emission; the one the
	// emitter holds makes it +1. With the one being handed over in flush,
	// at most bound+2 segments exist at once — the memory bound.
	workers, bound := pipelineGeometry(w.params.HostWorkers, w.opts.MaxInFlight)
	w.pipe.start(workers, bound+1, bound+1, func(job *segJob) {
		job.res = w.compressSegment(job.index, job.data)
	})
	w.emitted = make(chan struct{})
	go w.emitter()
}

// emitter writes frames in submission order. On the first error it stops
// writing but keeps draining, so Write/Close never deadlock against a
// full pipeline.
func (w *Writer) emitter() {
	defer close(w.emitted)
	// A resume-seeded group can already be full — its parity run was torn
	// off with the crash. Re-emit that run before any new frame.
	if k := w.opts.Parity.K; k > 0 && len(w.parityGroup) >= k && w.err() == nil {
		if err := w.emitParity(); err != nil {
			w.setErr(fmt.Errorf("core: writing resumed group parity: %w", err))
		}
	}
	for {
		it, ok := w.pipe.next()
		if !ok {
			break
		}
		it.wait(nil)
		job, res := &it.v, it.v.res
		w.wstatsMu.Lock()
		w.wstats.Segments++
		w.wstats.Retries += res.retries
		if res.degraded {
			w.wstats.Degraded++
		}
		w.wstatsMu.Unlock()
		// Mirror the same deltas into the registry at the same single
		// site, so counters and Stats() reconcile exactly.
		w.met.segments.Inc()
		w.met.retries.Add(int64(res.retries))
		if res.degraded {
			w.met.degraded.Inc()
		}
		w.met.bytesIn.Add(int64(len(job.data)))
		if res.err != nil {
			w.met.errors.Inc()
			w.setErr(fmt.Errorf("core: segment %d: %w", job.index, res.err))
		} else if w.err() == nil {
			var sp *obs.ActiveSpan
			if w.met.tracer != nil {
				sp = w.met.tracer.Start(fmt.Sprintf("segment %d", job.index), "frame-emit")
			}
			// One record per Write. Parity covers the exact frame bytes,
			// so a parity stream retains the encoding it wrote.
			enc := format.AppendSegmentFrame(make([]byte, 0, 24+len(res.container)), job.index, len(job.data), res.container)
			n, err := w.dst.Write(enc)
			if err == nil && w.opts.Parity.K > 0 {
				w.parityGroup = append(w.parityGroup, enc)
				if len(w.parityGroup) == w.opts.Parity.K {
					err = w.emitParity()
				}
			}
			sp.End(err)
			w.met.bytesOut.Add(int64(n))
			if err != nil {
				w.setErr(fmt.Errorf("core: writing segment frame %d: %w", job.index, err))
			} else {
				w.met.segmentsFor(res.codec).Inc()
				if w.opts.OnSegment != nil {
					w.opts.OnSegment(SegmentReport{
						Index:    job.index,
						RawLen:   len(job.data),
						FrameLen: n,
						Codec:    res.codec,
						Retries:  res.retries,
						Degraded: res.degraded,
						Report:   res.rep,
					})
				}
			}
		}
		w.release(job)
		w.pipe.retire(it)
	}
	// The final (possibly short) group still gets its parity: a reader
	// must be able to repair losses in the stream's tail too.
	if w.err() == nil && len(w.parityGroup) > 0 {
		if err := w.emitParity(); err != nil {
			w.setErr(fmt.Errorf("core: writing tail parity: %w", err))
		}
	}
}

// emitParity closes the open parity group: it derives the group's M
// parity frames and writes them after the group's last data frame.
// Runs on the emitter goroutine.
func (w *Writer) emitParity() error {
	pfs, err := format.BuildParityFrames(w.parityFirst, w.parityGroup, w.opts.Parity.M)
	if err != nil {
		return err
	}
	for _, pf := range pfs {
		if _, err := w.dst.Write(format.AppendParityFrame(make([]byte, 0, pf.EncodedLen()), pf)); err != nil {
			return err
		}
	}
	w.wstatsMu.Lock()
	w.wstats.ParityFrames += len(pfs)
	w.wstatsMu.Unlock()
	w.parityFirst += len(w.parityGroup)
	w.parityGroup = w.parityGroup[:0]
	return nil
}

// release returns a job's segment buffer to the pool and retires its
// bytes from the in-flight account.
func (w *Writer) release(job *segJob) {
	w.flightMu.Lock()
	w.inFlight -= cap(job.data)
	w.flightMu.Unlock()
	w.bufPool.put(job.data)
	job.data = nil
}

// compressSegment compresses segment index with the Writer's parameters,
// resolving the segment's engine from StreamOptions.Codec (so a stream
// may mix codecs frame by frame under the adaptive selector).
//
// Accelerated engines ride the gpu ladder (gpu.CompressSupervised) under
// StreamOptions.Retry: retries with jittered backoff, or with
// Params.Health armed the supervised pool walk, then the engine's
// byte-identical host twin. StreamOptions.SegmentDeadline bounds the
// whole device phase. Host engines (the CPU codecs, bzip2, raw-store)
// fail fast — their errors are deterministic.
func (w *Writer) compressSegment(index int, data []byte) segResult {
	p := w.params
	// Workers run concurrently; a shared SearchStats would race. Collect
	// locally and merge under the stats mutex.
	var local *lzss.SearchStats
	if p.Stats != nil {
		local = new(lzss.SearchStats)
		p.Stats = local
	}

	eng, err := resolveEngine(w.opts.Codec, data)
	if err != nil {
		return segResult{err: err}
	}
	opts, err := p.engineOptions(eng)
	if err != nil {
		return segResult{err: err}
	}
	opts.HostWorkers = 1 // the segment pipeline is the host parallelism

	merge := func() {
		if local != nil {
			w.statsMu.Lock()
			w.params.Stats.Add(*local)
			w.statsMu.Unlock()
		}
	}

	if !eng.Accelerated() {
		out, rep, err := eng.Compress(data, opts)
		if err == nil {
			merge()
		}
		return segResult{container: out, codec: eng.Codec(), rep: rep, err: err}
	}

	// The segment context bounds the whole device phase: every attempt,
	// the backoff sleeps, and (supervised) the redispatch ladder.
	segCtx, cancel := w.ctx, context.CancelFunc(func() {})
	if d := w.opts.SegmentDeadline; d > 0 {
		segCtx, cancel = context.WithTimeout(w.ctx, d)
	}
	defer cancel()
	opts.Context = segCtx
	home, op := -1, ""
	if sup := p.Health; sup != nil {
		home, op = index%sup.Devices(), fmt.Sprintf("segment %d", index)
	}
	o, err := gpu.CompressSupervised(eng, data, opts, w.opts.Retry, home, op)
	if err == nil {
		merge()
		return segResult{container: o.Container, codec: eng.Codec(), rep: o.Report,
			retries: o.Retries, degraded: o.Degraded}
	}
	if segCtx.Err() == nil {
		return segResult{retries: o.Retries, err: err}
	}
	// The device phase was cut short. A cancelled stream without drain
	// fails the segment; an expired segment deadline, or drain, degrades
	// it to the engine's host twin.
	if w.ctx.Err() != nil && !w.opts.DrainOnCancel {
		return segResult{retries: o.Retries, err: w.ctx.Err()}
	}
	if w.opts.Retry.DisableFallback {
		return segResult{retries: o.Retries, err: fmt.Errorf("core: gpu path failed: %w", err)}
	}
	// The twin emits the same container bytes as the device path, so
	// mixed streams stay parity-consistent and decode through the
	// ordinary path. Under graceful drain the stream context may already
	// be cancelled; the twin still runs to completion so Close can emit a
	// trailer covering every accepted byte.
	opts.Context = w.ctx
	if w.ctx.Err() != nil {
		opts.Context = context.Background()
	}
	out, cerr := eng.CompressCPU(data, opts)
	if cerr != nil {
		return segResult{retries: o.Retries,
			err: fmt.Errorf("core: cpu fallback after gpu failure (%v): %w", err, cerr)}
	}
	merge()
	return segResult{container: out, codec: eng.Codec(), retries: o.Retries, degraded: true}
}

func (w *Writer) setErr(err error) {
	w.mu.Lock()
	if w.werr == nil {
		w.werr = err
	}
	w.mu.Unlock()
}

func (w *Writer) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}

// Write accepts plaintext, cutting and dispatching full segments as they
// accumulate. It blocks while the pipeline is full.
func (w *Writer) Write(data []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.ctx.Err(); err != nil {
		return 0, err
	}
	if err := w.err(); err != nil {
		return 0, err
	}
	w.start()
	if err := w.err(); err != nil {
		return 0, err // e.g. the stream header failed to write
	}
	written := 0
	for len(data) > 0 {
		if w.buf == nil {
			w.buf = w.bufPool.get(w.segSize)
			w.segStart = time.Now()
		}
		n := w.segSize - len(w.buf)
		if n > len(data) {
			n = len(data)
		}
		w.buf = append(w.buf, data[:n]...)
		w.crc = format.Checksum32Update(w.crc, data[:n])
		w.total += n
		written += n
		data = data[n:]
		if len(w.buf) == w.segSize {
			if err := w.flushSegment(); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// flushSegment hands the current buffer to the pipeline. Admission blocks
// while the pipeline is full — that backpressure is the Writer's memory
// bound.
func (w *Writer) flushSegment() error {
	if w.met.tracer != nil {
		// The "read" stage: wall time spent accumulating this segment's
		// plaintext (includes the caller's own pacing — that is the
		// point: a slow producer shows up here, not in compress stages).
		w.met.tracer.Record(obs.Span{
			Op: fmt.Sprintf("segment %d", w.index), Stage: "read", Device: -1,
			Start: w.segStart, Duration: time.Since(w.segStart),
		})
	}
	job := segJob{index: w.index, data: w.buf}
	w.index++
	w.buf = nil
	w.flightMu.Lock()
	w.inFlight += cap(job.data)
	if w.inFlight > w.maxFlight {
		w.maxFlight = w.inFlight
	}
	w.flightMu.Unlock()
	// Graceful drain: the bytes were accepted, so the segment enters the
	// pipeline even while the stream context is cancelled — the workers
	// degrade it to the CPU encoder and the trailer stays honest.
	// Admission still bounds memory (in-flight segments always complete
	// under drain).
	var stop <-chan struct{}
	if !w.opts.DrainOnCancel {
		stop = w.ctx.Done()
	}
	if !w.pipe.submit(job, true, stop) {
		// The job never entered the pipeline; retire it here.
		w.release(&job)
		w.setErr(w.ctx.Err())
	}
	return w.err()
}

// Close flushes the final partial segment, waits for the pipeline to
// drain, writes the stream trailer, and reports the first error seen.
// Closing an empty Writer emits a valid zero-segment stream. A second
// Close is a no-op returning nil.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.start()
	if w.buf != nil && len(w.buf) > 0 {
		if err := w.flushSegment(); err != nil {
			// Pipeline already failed; still fall through to teardown.
			_ = err
		}
	}
	w.pipe.close()
	<-w.emitted
	w.pipe.teardown()
	if err := w.err(); err != nil {
		return err
	}
	trailer := &format.StreamTrailer{Segments: w.index, TotalLen: w.total, Checksum: w.crc}
	if _, err := w.dst.Write(format.AppendStreamTrailer(make([]byte, 0, 16), trailer)); err != nil {
		w.setErr(fmt.Errorf("core: writing stream trailer: %w", err))
	}
	return w.err()
}

// maxInFlight reports the high-water mark of segment-buffer bytes held by
// the pipeline (test hook for the memory-bound guarantee).
func (w *Writer) maxInFlight() int {
	w.flightMu.Lock()
	defer w.flightMu.Unlock()
	return w.maxFlight
}

// Reader is an io.Reader serving the decompressed expansion of either a
// framed stream or a bare container (decompressed whole).
//
// Framed streams decode through the Writer's pipeline run the other way:
// a prefetcher pulls records off the format.FrameReader (the sole owner
// of the frame/salvage/repair state, in its stage goroutine) and submits
// them (in submitStaged), a pool of HostWorkers decode workers
// decompresses segment containers concurrently, and delivery — the Read
// side — consumes the records in submission order, so plaintext order,
// corruption and repair records, and every callback are identical to a
// serial decode no matter how decode completions interleave. Peak
// decoded-segment memory is bounded by MaxInFlight segments (plus the one
// being served); the prefetcher parses ahead of admission only in repair
// mode, by at most one parity group.
type Reader struct {
	params Params
	opts   ReaderOptions
	ctx    context.Context
	met    readerMetrics

	// Legacy single-container mode.
	legacy *bytes.Reader

	// Framed mode. The pipeline starts lazily at the first Read; until
	// then a Reader costs no goroutines.
	fr    *format.FrameReader
	inner int // per-segment inner decode parallelism

	started    bool
	closed     bool
	pipe       pipeline[readEvent] // prefetcher -> decode workers -> delivery
	prefetchWG sync.WaitGroup      // the prefetcher: stage and submitStaged
	pctx       context.Context
	pcancel    context.CancelFunc
	// maxStaged is the most records stage held parsed behind the one
	// being submitted. Only TestRepairPrefetchStagingBound reads it
	// (after Close or EOF): staging has no other outside witness.
	maxStaged int

	contPool  *bytePool // frame container buffers (fed to fr.Lease)
	plainPool *bytePool // decoded segment buffers

	cur    []byte // decoded bytes of the current segment not yet consumed
	curBuf []byte // cur's pool-owned backing buffer, recycled once drained
	crc    uint32 // running CRC-32 of the plaintext served so far
	served int
	done   bool
	err    error

	// mu guards the record lists, stats, and in-flight accounting against
	// concurrent scrapes: Stats, CorruptSegments, and RepairedSegments
	// are safe to call while Read runs.
	mu       sync.Mutex
	corrupt  []*format.CorruptSegmentError
	repaired []*format.RepairedSegmentError
	stats    ReaderStats
	inflight int
}

// readEvent is one in-order record from the prefetcher; exactly one of
// frame, trailer, cse, rse, or err is set. Frame events are the
// pipeline's work: a worker fills plain/rep/derr.
type readEvent struct {
	frame   *format.SegmentFrame
	trailer *format.StreamTrailer
	cse     *format.CorruptSegmentError
	rse     *format.RepairedSegmentError
	err     error

	plain []byte // decoded segment, recycled to the plaintext pool once served
	rep   *gpu.Report
	derr  error
}

// terminal reports whether the event ends the record stream.
func (ev *readEvent) terminal() bool { return ev.trailer != nil || ev.err != nil }

// ReaderStats is a point-in-time snapshot of a framed Reader's decode
// activity, safe to take concurrently with Read.
type ReaderStats struct {
	// Segments and Bytes count delivered segments and plaintext bytes.
	Segments int
	Bytes    int
	// Corrupt and Repaired mirror len(CorruptSegments()) and
	// len(RepairedSegments()).
	Corrupt  int
	Repaired int
	// MaxInFlight is the high-water mark of segments admitted to the
	// pipeline and not yet delivered (the memory-bound guarantee's test
	// hook, the mirror of the Writer's).
	MaxInFlight int
	// PoolHits and PoolMisses count buffer requests served from the
	// Reader's recycle pools versus freshly allocated.
	PoolHits   int64
	PoolMisses int64
}

// ReaderOptions tune the Reader's decode behaviour.
type ReaderOptions struct {
	// Salvage opts into best-effort decode of damaged framed streams:
	// instead of stopping at the first bad record, the Reader skips
	// damaged regions (resynchronising at the next frame that parses and
	// checksums cleanly), keeps serving every intact segment, and records
	// one *format.CorruptSegmentError per damaged region, retrievable via
	// CorruptSegments. Salvaged segments still pass the per-frame CRC and
	// the per-container chunk checksums; only the end-to-end trailer
	// checks are waived (they cannot hold once bytes are missing).
	Salvage bool
	// Context, when non-nil, cancels the decode: Read fails with the
	// context's error at the next segment boundary. nil means
	// context.Background().
	Context context.Context
	// OnCorrupt, when non-nil, is called once per damaged region as it is
	// discovered (salvage mode only), before the following intact segment
	// is served.
	OnCorrupt func(*format.CorruptSegmentError)
	// Repair upgrades salvage from skip to heal: damaged or missing
	// segment frames are reconstructed bit-identically from the stream's
	// parity frames (when the writer emitted them via
	// StreamOptions.Parity), and only damage beyond the parity's reach
	// degrades to a recorded CorruptSegmentError. Implies Salvage.
	// Parity-less streams decode as under plain salvage. Healed regions
	// are recorded as *format.RepairedSegmentError, retrievable via
	// RepairedSegments; when every damaged region is repaired the
	// end-to-end trailer checks are enforced again (nothing is missing).
	Repair bool
	// OnRepair, when non-nil, is called once per healed region as its
	// parity group settles (repair mode only), before the repaired
	// segments are served.
	OnRepair func(*format.RepairedSegmentError)
	// HostWorkers is the decode pipeline's worker-pool size for framed
	// streams: up to that many segments decompress concurrently while
	// delivery stays strictly in stream order. 0 falls back to
	// Params.HostWorkers, then GOMAXPROCS; 1 decodes serially (the
	// pre-pipeline behaviour). Each pipeline worker decodes its segment
	// single-threaded — the segment pipeline is the host parallelism,
	// exactly as in the Writer.
	HostWorkers int
	// Prefetch is the depth of the in-order queue from the prefetcher to
	// delivery; 0 means MaxInFlight. A segment frame takes its admission
	// slot before it is queued, so no frame ever waits there unadmitted:
	// depth past MaxInFlight holds only records without decode work
	// (corrupt, repaired, trailer), and raising Prefetch does not let the
	// prefetcher read further ahead. A repair-mode Reader parses ahead of
	// admission by up to one parity group (FrameReader.ParityK records);
	// the stream's group size bounds that staging, not Prefetch.
	Prefetch int
	// MaxInFlight is the admission bound: at most this many segments may
	// be decoded or decoding at once, so peak decoded-segment memory is
	// MaxInFlight segments plus the one being served. 0 means
	// HostWorkers. Values below HostWorkers also shrink the worker pool —
	// admission, not worker count, is the bound.
	MaxInFlight int
	// MaxContainerLen bounds the legacy bare-container path: a non-framed
	// input longer than this fails with ErrContainerTooLarge instead of
	// being buffered without limit (the container format is not
	// incremental, so the Reader must hold it whole). 0 means
	// DefaultMaxContainerLen; negative means unlimited.
	MaxContainerLen int64
	// OnSegment, when non-nil, observes every delivered segment in stream
	// order: its index, plaintext length, and the GPU decode report (nil
	// for CPU-codec segments). The bench harness uses it to collect
	// per-segment modeled decode costs without re-reading the stream.
	OnSegment func(index, rawLen int, rep *gpu.Report)
}

// DefaultMaxContainerLen is the legacy bare-container path's input cap
// (the ReaderOptions.MaxContainerLen zero value). It matches the frame
// layer's segment ceiling — far beyond any real single container.
const DefaultMaxContainerLen = int64(format.MaxSegmentLen)

// ErrContainerTooLarge reports a bare (non-framed) input longer than
// ReaderOptions.MaxContainerLen.
var ErrContainerTooLarge = errors.New("core: bare container too large")

// ErrReaderClosed is returned by Read after Close interrupted a framed
// stream mid-decode.
var ErrReaderClosed = errors.New("core: reader is closed")

// NewReader sniffs src and returns a Reader over the plaintext. Framed
// streams decode lazily: NewReader itself reads only the stream header, so
// a pipe that has produced only its first frames is readable immediately.
func NewReader(src io.Reader, p Params) (*Reader, error) {
	return NewReaderOptions(src, p, ReaderOptions{})
}

// NewReaderOptions is NewReader with explicit decode options.
func NewReaderOptions(src io.Reader, p Params, o ReaderOptions) (*Reader, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	br := bufio.NewReader(src)
	magic, err := br.Peek(len(format.StreamMagic))
	if err == nil && string(magic) == format.StreamMagic {
		var fr *format.FrameReader
		var ferr error
		if o.Salvage || o.Repair {
			fr, ferr = format.NewFrameReaderSalvage(br)
		} else {
			fr, ferr = format.NewFrameReader(br)
		}
		if ferr != nil {
			return nil, ferr
		}
		fr.Obs = p.Obs
		if o.Repair {
			o.Salvage = true
			fr.EnableRepair()
		}
		r := &Reader{params: p, opts: o, ctx: ctx, fr: fr, met: newReaderMetrics(p.Obs)}
		r.contPool = newBytePool(p.Obs, "reader-container")
		r.plainPool = newBytePool(p.Obs, "reader-plain")
		fr.Lease = func(n int) []byte { return r.contPool.get(n) }
		return r, nil
	}
	// Bare container (or too short / not ours — let Decompress produce
	// the diagnostic). MaxContainerLen bounds the buffering so an endless
	// input fails typed instead of exhausting memory.
	limit := o.MaxContainerLen
	if limit == 0 {
		limit = DefaultMaxContainerLen
	}
	var container []byte
	if limit < 0 {
		container, err = io.ReadAll(br)
	} else {
		container, err = io.ReadAll(io.LimitReader(br, limit+1))
		if err == nil && int64(len(container)) > limit {
			err = fmt.Errorf("%w: input exceeds %d bytes (raise ReaderOptions.MaxContainerLen)",
				ErrContainerTooLarge, limit)
		}
	}
	if err != nil {
		return nil, err
	}
	out, err := Decompress(container, p)
	if err != nil {
		return nil, err
	}
	return &Reader{params: p, opts: o, ctx: ctx, legacy: bytes.NewReader(out)}, nil
}

// CorruptSegments returns the damaged regions recorded so far (salvage
// mode). A synthetic entry with Index == -1 marks a stream that ended
// without its trailer (truncated tail). The returned slice is a copy and
// grows as Read progresses; it is complete once Read has returned io.EOF.
// Safe to call concurrently with Read.
func (r *Reader) CorruptSegments() []*format.CorruptSegmentError {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*format.CorruptSegmentError(nil), r.corrupt...)
}

// RepairedSegments returns the healed regions recorded so far (repair
// mode): damage that parity reconstruction fully reversed, whose
// segments were served bit-identical to the originals. The returned
// slice is a copy and grows as Read progresses; it is complete once Read
// has returned io.EOF. Safe to call concurrently with Read.
func (r *Reader) RepairedSegments() []*format.RepairedSegmentError {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*format.RepairedSegmentError(nil), r.repaired...)
}

// Stats returns a snapshot of the Reader's decode-pipeline activity,
// safe to take concurrently with Read. For a legacy bare-container
// Reader every field is zero.
func (r *Reader) Stats() ReaderStats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	if r.contPool != nil {
		ch, cm := r.contPool.counts()
		ph, pm := r.plainPool.counts()
		st.PoolHits, st.PoolMisses = ch+ph, cm+pm
	}
	return st
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if err := r.ctx.Err(); err != nil {
		return 0, err
	}
	if r.legacy != nil {
		return r.legacy.Read(p)
	}
	if r.err != nil {
		return 0, r.err
	}
	r.startPipeline()
	for len(r.cur) == 0 {
		if r.curBuf != nil {
			r.plainPool.put(r.curBuf)
			r.cur, r.curBuf = nil, nil
		}
		if r.done {
			return 0, io.EOF
		}
		if err := r.nextEvent(); err != nil {
			r.err = err
			return 0, err
		}
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	if len(r.cur) == 0 && r.curBuf != nil {
		r.plainPool.put(r.curBuf)
		r.cur, r.curBuf = nil, nil
	}
	return n, nil
}

// startPipeline lazily spins up the decode pipeline on the first Read,
// so a Reader that is constructed but never read costs no goroutines.
func (r *Reader) startPipeline() {
	if r.started {
		return
	}
	r.started = true
	workers := r.opts.HostWorkers
	if workers <= 0 {
		workers = r.params.HostWorkers
	}
	workers, bound := pipelineGeometry(workers, r.opts.MaxInFlight)
	prefetch := r.opts.Prefetch
	if prefetch <= 0 {
		prefetch = bound
	}
	r.inner = 1
	if workers == 1 {
		// A serial pipeline keeps the pre-pipeline behaviour: the one
		// decode at a time may use inner chunk parallelism.
		r.inner = r.params.HostWorkers
	}
	r.pctx, r.pcancel = context.WithCancel(r.ctx)
	r.pipe.admitted = r.noteAdmit
	r.pipe.start(workers, bound, prefetch, r.decodeOne)
	// The hand-off never blocks: at most lookAhead()+1 records, at most
	// MaxParityK+1, are ever parsed and not yet submitted.
	staged := make(chan readEvent, format.MaxParityK+1)
	submitted := make(chan struct{}, format.MaxParityK+1)
	r.prefetchWG.Add(2)
	go r.stage(staged, submitted)
	go r.submitStaged(staged, submitted)
}

// stage is the sole owner of the FrameReader: it reads the
// frame/salvage record stream in order and hands each record to
// submitStaged, which submits it to the pipeline, segment frames as
// decode work. Stream order is fixed here, before any concurrency;
// delivery consumes the records in the same order. stage parses the
// next record only while at most lookAhead() records it handed over
// await the end of their submit.
func (r *Reader) stage(staged chan<- readEvent, submitted <-chan struct{}) {
	defer r.prefetchWG.Done()
	stop := r.pctx.Done()
	pending := 0 // records handed over whose submit has not returned
	for seq := 0; r.pctx.Err() == nil; seq++ {
		for pending > r.lookAhead() {
			select {
			case <-submitted:
				pending--
			case <-stop:
				return
			}
		}
		ev := r.readRecord(seq)
		staged <- ev
		pending++
		r.maxStaged = max(r.maxStaged, pending-1)
		if ev.terminal() {
			return
		}
	}
}

// lookAhead is how many parsed records stage may hold behind the one
// being submitted. A settling parity group releases its frames at once,
// and a stage that waited on each submit would wait for admission at the
// group's MaxInFlight+1-th frame with the next group unparsed; so in
// repair mode stage parses on by one group (FrameReader.ParityK), and the
// next group is parsed and settled while the last waits. Elsewhere, and
// before the first parity frame (ParityK 0), records come one at a time
// and parsing ahead would only hold more containers: stage parses the
// next record once the last is submitted.
func (r *Reader) lookAhead() int {
	if r.opts.Repair {
		return r.fr.ParityK
	}
	return 0
}

// submitStaged submits what stage parsed to the pipeline, in order, and
// reports each submission back.
func (r *Reader) submitStaged(staged <-chan readEvent, submitted chan<- struct{}) {
	defer r.prefetchWG.Done()
	defer r.pipe.close()
	stop := r.pctx.Done()
	for {
		var ev readEvent
		select {
		case ev = <-staged:
		case <-stop:
			return
		}
		if !r.pipe.submit(ev, ev.frame != nil, stop) || ev.terminal() {
			return
		}
		submitted <- struct{}{}
	}
}

// readRecord reads the next record off the FrameReader as an event.
func (r *Reader) readRecord(seq int) readEvent {
	var sp *obs.ActiveSpan
	if r.met.tracer != nil {
		sp = r.met.tracer.Start(fmt.Sprintf("record %d", seq), "frame-read")
	}
	frame, trailer, err := r.fr.Next()
	sp.End(err)
	var ev readEvent
	switch {
	case err != nil:
		if r.opts.Salvage {
			// A RepairedSegmentError may wrap the parse failure that
			// revealed the damage, so match it before the corrupt case.
			// Both are non-sticky: the next record follows.
			var rse *format.RepairedSegmentError
			var cse *format.CorruptSegmentError
			if errors.As(err, &rse) {
				ev.rse = rse
				return ev
			}
			if errors.As(err, &cse) {
				ev.cse = cse
				return ev
			}
		}
		ev.err = err
	case trailer != nil:
		ev.trailer = trailer
	default:
		ev.frame = frame
	}
	return ev
}

// decodeOne decompresses one segment container into a pooled buffer and
// publishes the result on the event.
func (r *Reader) decodeOne(ev *readEvent) {
	if err := r.pctx.Err(); err != nil {
		ev.derr = err
		return
	}
	var sp *obs.ActiveSpan
	if r.met.tracer != nil {
		sp = r.met.tracer.Start(fmt.Sprintf("segment %d", ev.frame.Index), "decode")
	}
	// Offer the codec only a recycled buffer. On a miss the codec sizes
	// its own output once its header's claim has passed the codec's
	// bound, so the frame's rawLen never sizes an allocation.
	offered := r.plainPool.reuse(ev.frame.RawLen)
	plain, rep, err := decompressInto(offered, ev.frame.Container, r.params, r.pctx, r.inner)
	sp.End(err)
	r.contPool.put(ev.frame.Buffer())
	ev.frame.Container = nil
	if err != nil || !aliases(plain, offered) {
		// The codec wrote elsewhere (a miss, a CPU codec, or a header
		// asking for more than the offer): recycle the offer now. The
		// codec's own output, which no codec keeps a reference to, is
		// recycled once it is served.
		r.plainPool.put(offered)
	}
	if err != nil {
		ev.derr = err
		return
	}
	ev.plain = plain
	ev.rep = rep
}

// aliases reports whether the decoded output landed inside the offered
// buffer, as opposed to a fresh allocation.
func aliases(plain, offered []byte) bool {
	return cap(plain) > 0 && cap(offered) > 0 && &plain[:1][0] == &offered[:1][0]
}

// nextEvent consumes in-order events until one yields plaintext, the
// trailer, or an error — the concurrent mirror of the serial reader's
// nextSegment loop. All bookkeeping (records, callbacks, CRC, totals)
// happens here, on the Read side, in queue order.
func (r *Reader) nextEvent() error {
	for {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		it, ok := r.pipe.next()
		if !ok {
			// The pipeline stopped without a terminal record: the Reader
			// was closed (or its context cancelled) mid-stream.
			if err := r.ctx.Err(); err != nil {
				return err
			}
			return ErrReaderClosed
		}
		switch ev := &it.v; {
		case ev.rse != nil:
			r.recordRepaired(ev.rse)
		case ev.cse != nil:
			r.recordCorrupt(ev.cse)
		case ev.err != nil:
			r.finish()
			if r.opts.Salvage && errors.Is(ev.err, format.ErrTruncated) {
				// The stream ended without its trailer. Deliver what we
				// have; the truncation is recorded for the caller.
				r.recordCorrupt(&format.CorruptSegmentError{Index: -1, Err: format.ErrTruncated})
				r.done = true
				return nil
			}
			return ev.err
		case ev.trailer != nil:
			r.finish()
			if r.corruptCount() == 0 {
				if ev.trailer.TotalLen != r.served {
					return fmt.Errorf("%w: trailer says %d plaintext bytes, decoded %d",
						format.ErrCorrupt, ev.trailer.TotalLen, r.served)
				}
				if ev.trailer.Checksum != r.crc {
					return fmt.Errorf("%w: stream trailer", format.ErrChecksum)
				}
			}
			// With recorded corruption the end-to-end totals cannot match;
			// the delivered segments were each CRC-verified individually.
			r.done = true
			return nil
		default:
			delivered, err := r.deliverFrame(it)
			if err != nil {
				return err
			}
			if delivered {
				return nil
			}
		}
	}
}

// deliverFrame waits for one frame event's decode and applies the serial
// reader's delivery rules. It reports whether plaintext was delivered
// into r.cur (false: the segment was recorded corrupt and skipped,
// salvage mode only).
func (r *Reader) deliverFrame(it *pipeItem[readEvent]) (bool, error) {
	if !it.wait(r.pctx.Done()) {
		if err := r.ctx.Err(); err != nil {
			return false, err
		}
		return false, ErrReaderClosed
	}
	r.noteRetire()
	r.pipe.retire(it)
	ev := &it.v
	frame := ev.frame
	if ev.derr != nil {
		if errors.Is(ev.derr, context.Canceled) || errors.Is(ev.derr, context.DeadlineExceeded) {
			// Pipeline shutdown cut this decode short: cancellation, not
			// data corruption — never a salvage record.
			if err := r.ctx.Err(); err != nil {
				return false, err
			}
			return false, ev.derr
		}
		if r.opts.Salvage {
			// The frame CRC held but the container inside is broken (for
			// example a frame-header bit-flip mislabelled an intact
			// container). Skip just this segment.
			r.recordCorrupt(&format.CorruptSegmentError{Index: frame.Index, Err: ev.derr})
			return false, nil
		}
		return false, fmt.Errorf("core: segment %d: %w", frame.Index, ev.derr)
	}
	if len(ev.plain) != frame.RawLen {
		r.plainPool.put(ev.plain)
		err := fmt.Errorf("%w: segment %d decoded to %d bytes, frame says %d",
			format.ErrCorrupt, frame.Index, len(ev.plain), frame.RawLen)
		if r.opts.Salvage {
			r.recordCorrupt(&format.CorruptSegmentError{Index: frame.Index, Err: err})
			return false, nil
		}
		return false, err
	}
	r.crc = format.Checksum32Update(r.crc, ev.plain)
	r.served += len(ev.plain)
	r.cur = ev.plain
	r.curBuf = ev.plain
	r.met.segments.Inc()
	r.met.bytesOut.Add(int64(len(ev.plain)))
	r.mu.Lock()
	r.stats.Segments++
	r.stats.Bytes += len(ev.plain)
	r.mu.Unlock()
	if r.opts.OnSegment != nil {
		r.opts.OnSegment(frame.Index, frame.RawLen, ev.rep)
	}
	return true, nil
}

// recordCorrupt appends one damaged region and fires the callback.
func (r *Reader) recordCorrupt(cse *format.CorruptSegmentError) {
	r.met.corrupt.Inc()
	r.mu.Lock()
	r.corrupt = append(r.corrupt, cse)
	r.stats.Corrupt = len(r.corrupt)
	r.mu.Unlock()
	if r.opts.OnCorrupt != nil {
		r.opts.OnCorrupt(cse)
	}
}

// recordRepaired appends one healed region and fires the callback.
func (r *Reader) recordRepaired(rse *format.RepairedSegmentError) {
	r.mu.Lock()
	r.repaired = append(r.repaired, rse)
	r.stats.Repaired = len(r.repaired)
	r.mu.Unlock()
	if r.opts.OnRepair != nil {
		r.opts.OnRepair(rse)
	}
}

func (r *Reader) corruptCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.corrupt)
}

// noteAdmit accounts one segment entering the pipeline (prefetcher side:
// called with the admission slot held, before the segment is queued).
func (r *Reader) noteAdmit() {
	r.mu.Lock()
	r.inflight++
	if r.inflight > r.stats.MaxInFlight {
		r.stats.MaxInFlight = r.inflight
	}
	r.mu.Unlock()
	r.met.inflight.Inc()
}

// noteRetire accounts one segment leaving the pipeline at delivery,
// before its admission slot is released.
func (r *Reader) noteRetire() {
	r.mu.Lock()
	r.inflight--
	r.mu.Unlock()
	r.met.inflight.Dec()
}

// finish tears the pipeline down: cancellation stops the prefetcher and
// cuts in-flight decodes short, every pipeline goroutine is joined, and
// whatever was still queued is dropped so nothing pins the pooled
// buffers. After a terminal record the prefetcher has already stopped.
func (r *Reader) finish() {
	r.pcancel()
	r.prefetchWG.Wait()
	r.pipe.teardown()
}

// Close releases the decode pipeline without reading to EOF: in-flight
// decodes are cancelled and every pipeline goroutine is joined. It never
// closes the underlying source. Close is idempotent, and a Reader that
// reaches io.EOF (or a terminal error) tears its pipeline down on its
// own — Close is for abandoning a framed stream midway, after which Read
// returns ErrReaderClosed.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.legacy != nil || !r.started {
		return nil
	}
	r.finish()
	if r.err == nil && !r.done {
		r.err = ErrReaderClosed
	}
	return nil
}

// Len reports the plaintext bytes currently buffered and undelivered. For
// a bare container that is the whole remainder; for a framed stream it is
// the unread tail of the current segment (the stream's total length is
// only known at the trailer).
func (r *Reader) Len() int {
	if r.legacy != nil {
		return r.legacy.Len()
	}
	return len(r.cur)
}
