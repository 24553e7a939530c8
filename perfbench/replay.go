package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/ecc"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/lzss"
)

// selectProbe is how much of a segment codec.SelectCodec samples (its
// middle 32 KiB).
const selectProbe = 32 << 10

// span is one call the traced replay made into a layer.
type span struct {
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	ID     int    `json:"id"`     // segment or message index; -1 for stream-level calls
	Parent int    `json:"parent"` // index of the enclosing span in the run's list; -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer keeps a run's spans in memory.
type tracer struct {
	epoch  time.Time
	pass   int
	parent int
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), parent: -1} }

type mark struct {
	at    time.Duration
	alloc uint64
}

func (t *tracer) begin() mark {
	a := allocNow()
	return mark{at: time.Since(t.epoch), alloc: a}
}

// end closes the span begun at m, naming it now that the call's outcome
// (which engine ran) is known.
func (t *tracer) end(m mark, name string, id int) {
	e := time.Since(t.epoch)
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, ID: id, Parent: t.parent,
		Start: int64(m.at), End: int64(e), Alloc: allocNow() - m.alloc})
}

// open starts a parent span: spans ended before the matching close are
// its children.
func (t *tracer) open(name string, id int) int {
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, ID: id, Parent: -1, Start: int64(time.Since(t.epoch))})
	t.parent = len(t.spans) - 1
	return t.parent
}

func (t *tracer) close(i int) {
	t.spans[i].End = int64(time.Since(t.epoch))
	t.parent = -1
}

// Parent spans. Children of replayEncode and replayDecode are the calls on
// the pipeline's path; children of replayExplain repeat work those calls
// do internally (ecc inside the format parity calls, the clean parse that
// repair mode replaces) to break it down, and are left out of sums over
// the path.
const (
	replayEncode  = "replay.encode"
	replayDecode  = "replay.decode"
	replayExplain = "replay.explain"
)

// replayStats holds what a replay counts besides its spans.
type replayStats struct {
	encWall, decWall time.Duration
	route            [format.CodecMax + 1]int64 // plaintext bytes per engine
	probe            int64                      // plaintext bytes the selector sampled
	search           lzss.SearchStats
	kernel           time.Duration // modeled compress kernel time (Launch.KernelTime)
	v2Post           time.Duration // V2's measured host post-pass (Report.HostTime)
	stream, payload  int64         // stream bytes; compressed payload bytes inside containers
	parity           int64         // parity-frame bytes
	damagedGroups    int
	repaired         int
	failed           int
	errs             []error
}

// group is one closed parity group of the replayed stream.
type group struct {
	first  int
	frames [][]byte // exact data-frame bytes
	parity [][]byte // parity shards
}

// encoded is one replayed stream.
type encoded struct {
	stream []byte
	layout []record
	groups []group
}

func engineSpan(c format.Codec) string {
	switch c {
	case format.CodecCULZSSV1:
		return "gpu.v1"
	case format.CodecCULZSSV2:
		return "gpu.v2"
	case format.CodecStoreRaw:
		return "codec.raw"
	}
	return "codec." + c.String()
}

func decodeSpan(c format.Codec) string {
	if c == format.CodecCULZSSV1 || c == format.CodecCULZSSV2 {
		return "gpu.decode"
	}
	return engineSpan(c)
}

// traceEncode rebuilds, call by call, the stream a Writer with codec auto
// emits for in: per segment the running stream CRC, the selector, the
// engine, the frame; per K frames the parity frames; then the trailer.
// Segment ids are id0 + segment index.
func traceEncode(tr *tracer, id0 int, in []byte, segSize int, par core.ParityConfig, rs *replayStats) (encoded, error) {
	var out encoded
	m := tr.begin()
	st := format.AppendStreamHeader(nil, segSize)
	tr.end(m, "format.frame_build", -1)

	var open [][]byte
	closeGroup := func(first int) error {
		off := int64(len(st))
		m := tr.begin()
		pfs, err := format.BuildParityFrames(first, open, par.M)
		if err == nil {
			for _, pf := range pfs {
				st = format.AppendParityFrame(st, pf)
			}
		}
		tr.end(m, "format.parity_build", id0+first)
		if err != nil {
			return err
		}
		g := group{first: first, frames: open}
		for _, pf := range pfs {
			n := int64(pf.EncodedLen())
			out.layout = append(out.layout, record{start: off, end: off + n, parity: true})
			off += n
			rs.parity += n
			g.parity = append(g.parity, pf.Shard)
		}
		out.groups = append(out.groups, g)
		open = nil
		return nil
	}

	var crc uint32
	n := 0
	for off := 0; off < len(in); off += segSize {
		data := in[off:min(off+segSize, len(in))]
		id := id0 + n

		m := tr.begin()
		crc = format.Checksum32Update(crc, data)
		tr.end(m, "format.frame_build", id)

		m = tr.begin()
		c := codec.SelectCodec(data)
		tr.end(m, "codec.select", id)

		eng, ok := codec.Lookup(c)
		if !ok {
			return out, fmt.Errorf("selector chose unregistered codec %v", c)
		}
		opts := gpu.Options{HostWorkers: 1, Stats: &rs.search}
		switch c {
		case format.CodecCULZSSV1:
			opts.Config = lzss.CULZSSV1()
		case format.CodecCULZSSV2:
			opts.Config = lzss.CULZSSV2()
		}
		m = tr.begin()
		cont, rep, err := eng.Compress(data, opts)
		tr.end(m, engineSpan(c), id)
		if err != nil {
			return out, fmt.Errorf("segment %d: %w", n, err)
		}
		rs.route[c] += int64(len(data))
		rs.probe += int64(min(len(data), selectProbe))
		if rep != nil {
			rs.kernel += rep.Launch.KernelTime
			if c == format.CodecCULZSSV2 {
				rs.v2Post += rep.HostTime
			}
		}
		if _, hl, err := format.ParseHeader(cont); err == nil {
			rs.payload += int64(len(cont) - hl)
		}

		start := len(st)
		m = tr.begin()
		st = format.AppendSegmentFrame(st, n, len(data), cont)
		tr.end(m, "format.frame_build", id)
		out.layout = append(out.layout, record{start: int64(start), end: int64(len(st))})
		n++
		if par.K > 0 {
			open = append(open, st[start:len(st):len(st)])
			if len(open) == par.K {
				if err := closeGroup(n - par.K); err != nil {
					return out, err
				}
			}
		}
	}
	if len(open) > 0 {
		if err := closeGroup(n - len(open)); err != nil {
			return out, err
		}
	}
	m = tr.begin()
	st = format.AppendStreamTrailer(st, &format.StreamTrailer{Segments: n, TotalLen: len(in), Checksum: crc})
	tr.end(m, "format.frame_build", -1)
	out.stream = st
	rs.stream += int64(len(st))
	return out, nil
}

// traceDecode parses stream with a FrameReader (in salvage+repair mode
// when repair is set) and, when decode is set, decompresses every frame
// with its engine, checking the output against want op by op.
func traceDecode(tr *tracer, id0 int, stream, want []byte, opSize int, repair, decode bool, rs *replayStats) {
	parse := "format.parse"
	if repair {
		parse = "format.repair_parse"
	}
	v := newVerifier(want, opSize)
	m := tr.begin()
	var fr *format.FrameReader
	var err error
	if repair {
		if fr, err = format.NewFrameReaderSalvage(bytes.NewReader(stream)); err == nil {
			fr.EnableRepair()
		}
	} else {
		fr, err = format.NewFrameReader(bytes.NewReader(stream))
	}
	tr.end(m, parse, -1)
	if err == nil {
		var free [][]byte // recycled containers, as the Reader's pool does
		fr.Lease = func(n int) []byte {
			if k := len(free); k > 0 {
				b := free[k-1]
				free = free[:k-1]
				return b
			}
			return nil
		}
		var out []byte
		for {
			m := tr.begin()
			f, t, nerr := fr.Next()
			id := -1
			if f != nil {
				id = id0 + f.Index
			}
			tr.end(m, parse, id)
			var rse *format.RepairedSegmentError
			var cse *format.CorruptSegmentError
			switch {
			case errors.As(nerr, &rse):
				rs.repaired += len(rse.Frames)
				continue
			case errors.As(nerr, &cse):
				continue // the skipped bytes fail their ops in the verifier
			case nerr != nil:
				err = nerr
			}
			if err != nil || t != nil {
				break
			}
			if !decode {
				free = append(free, f.Container)
				continue
			}
			m = tr.begin()
			var c format.Codec
			h, _, derr := format.ParseHeader(f.Container)
			if derr == nil {
				c = h.Codec
				if eng, ok := codec.Lookup(c); ok {
					out, _, derr = eng.DecompressInto(out, f.Container, gpu.Options{HostWorkers: 1})
				} else {
					derr = &codec.UnknownCodecError{Codec: c}
				}
			}
			tr.end(m, decodeSpan(c), id)
			if derr != nil {
				err = derr
				break
			}
			v.Write(out)
			free = append(free, f.Container)
		}
	}
	if !decode {
		if err != nil {
			rs.errs = append(rs.errs, err)
			rs.failed++
		}
		return
	}
	if err != nil {
		rs.errs = append(rs.errs, err)
	}
	rs.failed += v.failures(err)
}

// replay runs one pass of the workload through the layers' public functions,
// serially, one span per call. wire is the stream the Writer emitted in the
// pass just run (wireLen its length, summed over messages); the replay must
// rebuild it byte for byte.
func (r *runner) replay(tr *tracer, wire []byte, wireLen int64) replayStats {
	var rs replayStats
	w := r.w
	if !w.stream() {
		for i, m := range w.msgs {
			p := tr.open(replayEncode, i)
			t0 := time.Now()
			enc, err := traceEncode(tr, i, m, w.segSize, core.ParityConfig{}, &rs)
			rs.encWall += time.Since(t0)
			tr.close(p)
			if err != nil {
				rs.errs = append(rs.errs, err)
				rs.failed++
				continue
			}
			p = tr.open(replayDecode, i)
			t1 := time.Now()
			traceDecode(tr, i, enc.stream, m, len(m), false, true, &rs)
			rs.decWall += time.Since(t1)
			tr.close(p)
		}
		if rs.stream != wireLen {
			rs.errs = append(rs.errs, fmt.Errorf("replayed messages total %d stream bytes, the Writer emitted %d", rs.stream, wireLen))
			rs.failed++
		}
		return rs
	}

	p := tr.open(replayEncode, -1)
	t0 := time.Now()
	enc, err := traceEncode(tr, 0, w.input, w.segSize, w.parity, &rs)
	rs.encWall = time.Since(t0)
	tr.close(p)
	if err != nil {
		rs.errs = append(rs.errs, err)
		rs.failed += w.ops()
		return rs
	}
	if !bytes.Equal(enc.stream, wire) {
		rs.errs = append(rs.errs, errors.New("replayed stream differs from the Writer's"))
		rs.failed++
	}
	src := enc.stream
	var bursts []burst
	if w.parity.K > 0 {
		src = append([]byte(nil), enc.stream...)
		bursts = placeBursts(w.burstSeed, enc.layout, w.parity.K)
		for _, b := range bursts {
			for i, m := range b.mask {
				src[b.off+int64(i)] ^= m
			}
		}
		rs.damagedGroups = len(bursts)
	}
	p = tr.open(replayDecode, -1)
	t1 := time.Now()
	traceDecode(tr, 0, src, w.input, w.segSize, w.parity.K > 0, true, &rs)
	rs.decWall = time.Since(t1)
	tr.close(p)

	if w.parity.K == 0 {
		return rs
	}
	p = tr.open(replayExplain, -1)
	r.explainParity(tr, enc.groups, bursts, &rs)
	var clean replayStats
	traceDecode(tr, 0, enc.stream, w.input, w.segSize, false, false, &clean)
	rs.failed += clean.failed
	rs.errs = append(rs.errs, clean.errs...)
	tr.close(p)
	return rs
}

// explainParity times the ecc calls the format parity code makes, on the
// same shards: Coder.Parity for every group, and Coder.Reconstruct for
// every damaged group with its damaged frame erased.
func (r *runner) explainParity(tr *tracer, groups []group, bursts []burst, rs *replayStats) {
	k, m := r.w.parity.K, r.w.parity.M
	shards := func(g group) [][]byte { // data frames zero-padded to the shard length
		s := make([][]byte, len(g.frames), len(g.frames)+m)
		for i, f := range g.frames {
			s[i] = make([]byte, len(g.parity[0]))
			copy(s[i], f)
		}
		return s
	}
	for _, g := range groups {
		data := shards(g)
		mk := tr.begin()
		coder, err := ecc.New(len(g.frames), m)
		if err == nil {
			_, err = coder.Parity(data)
		}
		tr.end(mk, "ecc.parity", g.first)
		if err != nil {
			rs.errs = append(rs.errs, err)
			rs.failed++
		}
	}
	for _, b := range bursts {
		g := groups[b.frame/k]
		all := append(shards(g), g.parity...)
		lost := b.frame - g.first
		want := all[lost]
		all[lost] = nil
		mk := tr.begin()
		coder, err := ecc.New(len(g.frames), m)
		if err == nil {
			err = coder.Reconstruct(all)
		}
		tr.end(mk, "ecc.reconstruct", g.first)
		if err == nil && !bytes.Equal(all[lost], want) {
			err = fmt.Errorf("group %d: reconstructed frame differs", g.first)
		}
		if err != nil {
			rs.errs = append(rs.errs, err)
			rs.failed++
		}
	}
}
