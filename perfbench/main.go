// Command perfbench measures the real streaming Writer and Reader over three
// seeded workloads. See README.md in this directory for the workloads, the
// metrics and how to run it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/format"
)

// setupProbes is how many fresh processes measure set-up besides the run's
// own, so setup_s is a median of cold starts rather than one of them.
const setupProbes = 4

// fixedRounds is how many 1-byte round trips each traced pass times for
// core.stream_fixed_us.
const fixedRounds = 16

// minSamples is how many samples the one percentile a run reports needs
// (op_p50_ms, or core.writer_wait_ms_p50 when traced): minBeyond beyond it.
// A run keeps going past --seconds until it has them.
const minSamples = 2 * minBeyond

// metric names a reported metric and its unit. The result line carries
// exactly the end-to-end metrics without --trace and the per-layer ones
// with it, as BENCHMARK.json lists them.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"enc_mbps", "MB/s"},
	{"dec_mbps", "MB/s"},
	{"ratio", "B/B"},
	{"enc_cpu_ms_per_mib", "ms/MiB"},
	{"dec_cpu_ms_per_mib", "ms/MiB"},
	{"enc_alloc_bytes_per_byte", "B/B"},
	{"dec_alloc_bytes_per_byte", "B/B"},
	{"op_p50_ms", "ms"},
}

var perLayer = []metric{
	{"gpu.v2_ms_per_mib", "ms/MiB"},
	{"gpu.v2_post_ms_per_mib", "ms/MiB"},
	{"gpu.v2_alloc_bytes_per_byte", "B/B"},
	{"gpu.v1_ms_per_mib", "ms/MiB"},
	{"gpu.v1_alloc_bytes_per_byte", "B/B"},
	{"gpu.decode_ms_per_mib", "ms/MiB"},
	{"gpu.model_kernel_ms_per_mib", "ms/MiB"},
	{"lzss.cmp_per_byte", "count/B"},
	{"lzss.positions_per_byte", "count/B"},
	{"codec.select_ms_per_mib", "ms/MiB"},
	{"codec.raw_ms_per_mib", "ms/MiB"},
	{"codec.probe_frac", "ratio"},
	{"codec.route_v1_frac", "ratio"},
	{"codec.route_v2_frac", "ratio"},
	{"codec.route_raw_frac", "ratio"},
	{"format.frame_build_ms_per_mib", "ms/MiB"},
	{"format.overhead_bytes_frac", "ratio"},
	{"format.parity_build_ms_per_mib", "ms/MiB"},
	{"format.parity_bytes_frac", "ratio"},
	{"format.parse_ms_per_mib", "ms/MiB"},
	{"format.repair_parse_ms_per_mib", "ms/MiB"},
	{"format.repaired_segments", "count"},
	{"format.unrepaired_segments", "count"},
	{"ecc.parity_ms_per_mib", "ms/MiB"},
	{"ecc.reconstruct_ms_per_group", "ms"},
	{"core.writer_wait_ms_p50", "ms"},
	{"core.writer_retries", "count"},
	{"core.writer_degraded", "count"},
	{"core.reader_pool_hit_frac", "ratio"},
	{"core.stream_fixed_us", "us"},
	{"core.stream_fixed_alloc_bytes", "B"},
	{"core.unattributed_frac", "ratio"},
	{"trace.enc_mbps", "MB/s"},
	{"trace.dec_mbps", "MB/s"},
	{"trace.enc_overhead_frac", "ratio"},
	{"trace.dec_overhead_frac", "ratio"},
	{"trace.span_cost_frac", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measure for this long (longer if a percentile needs more samples)")
	trace := fs.Int("trace", 0, "1: traced layer replay and per-layer metrics; 0: end-to-end metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none if empty)")
	probe := fs.Bool("setup-probe", false, "measure set-up once and exit (the run starts these itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0|1, and no positional arguments")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, trace: *trace == 1, workers: runtime.NumCPU()}
	if *probe {
		s, first, _ := setup(w, b.workers)
		out, _ := json.Marshal(probeResult{Setup: s, Ops: first.ops, Failed: first.failed})
		fmt.Fprintln(stdout, string(out))
		return 0
	}
	return b.measure(time.Duration(*seconds)*time.Second, setupProbes, *spansDir, stdout, stderr)
}

// measure runs set-up, then timed passes until d is up (longer while the
// reported percentile lacks samples, shorter once an op fails), and prints
// the result. probes fresh processes measure set-up besides this one. It
// returns the exit code.
func (b *bench) measure(d time.Duration, probes int, spansDir string, stdout, stderr io.Writer) int {
	w := b.w
	s, first, r := setup(w, b.workers)
	b.note(first)
	b.setups = []float64{s}
	b.fingerprint = fingerprintOf(first)
	if !b.trace {
		if err := b.probeSetups(probes); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup probe:", err)
			return 1
		}
	}

	var tr *tracer
	if b.trace {
		tr = newTracer()
	}
	// The first failed op ends the run: its result is refused whatever else
	// it measures, and a pass that fails yields no latency sample to wait
	// for.
	deadline := time.Now().Add(d)
	for i := 0; b.failed == 0 && (time.Now().Before(deadline) || !b.enoughSamples()); i++ {
		ps := r.pass()
		b.note(ps)
		b.passes = append(b.passes, ps)
		b.decodes = append(b.decodes, ps)
		if fp := fingerprintOf(ps); fp != b.fingerprint {
			b.drift(fmt.Sprintf("pass %d counts %+v, first pass %+v", i, fp, b.fingerprint))
		}
		if b.trace {
			tr.pass = i
			b.traced(r, tr, ps)
			continue
		}
		for k := 1; k < w.decodes && ps.failed == 0; k++ {
			re := r.redecode(ps)
			b.note(re)
			b.decodes = append(b.decodes, re)
			if fp := fingerprintOf(re); fp != b.fingerprint {
				b.drift(fmt.Sprintf("pass %d decode %d counts %+v, first pass %+v", i, k, fp, b.fingerprint))
			}
		}
	}

	var metrics map[string]float64
	if b.trace {
		metrics = b.layerMetrics(tr)
		if spansDir != "" {
			if err := writeSpans(spansDir, w.name, b.seed, tr.spans); err != nil {
				fmt.Fprintln(stderr, "perfbench: writing spans:", err)
				return 1
			}
		}
	} else {
		metrics = b.endToEndMetrics()
	}
	b.print(stdout, metrics)
	if b.failed > 0 {
		return 1
	}
	return 0
}

// setup is the run's set-up: device detection through the first, untimed
// pass, checked like every other. Its wall time is the setup_s sample.
func setup(w *workload, workers int) (float64, passStats, *runner) {
	t0 := time.Now()
	core.Init()
	r := newRunner(w, workers)
	ps := r.pass()
	return time.Since(t0).Seconds(), ps, r
}

type probeResult struct {
	Setup  float64 `json:"setup_s"`
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
}

// fingerprint is what must repeat exactly on every pass of a run.
type fingerprint struct {
	Wire, Parity                 int64
	Bursts, Repaired, Unrepaired int
}

func fingerprintOf(ps passStats) fingerprint {
	return fingerprint{ps.wire, ps.parityBytes, ps.bursts, ps.repaired, ps.unrepaired}
}

// replayPrint is what must repeat exactly on every traced replay.
type replayPrint struct {
	Route                   [format.CodecMax + 1]int64
	Comparisons, Positions  int64
	Stream, Payload, Parity int64
	Repaired                int
}

func replayPrintOf(rs replayStats) replayPrint {
	return replayPrint{rs.route, rs.search.Comparisons, rs.search.Positions, rs.stream, rs.payload, rs.parity, rs.repaired}
}

// bench accumulates one run.
type bench struct {
	w       *workload
	seed    int64
	trace   bool
	workers int

	setups      []float64
	passes      []passStats // timed passes; the set-up pass is not one
	decodes     []passStats // every timed decode: each pass's, and its repeats
	fingerprint fingerprint
	attempted   int
	failed      int
	problems    []string

	// Traced run.
	replays    []replayStats
	spans      []int // spans each traced replay recorded
	waitMS     []float64
	fixedUS    []float64
	fixedAlloc []float64
	replayFP   *replayPrint
}

func (b *bench) note(ps passStats) {
	b.attempted += ps.ops
	b.failed += ps.failed
	for _, err := range ps.errs {
		b.problems = append(b.problems, fmt.Sprint(err))
	}
	if ps.bursts != ps.repaired {
		b.failed += max(ps.bursts-ps.repaired, 1)
		b.problems = append(b.problems, fmt.Sprintf("%d bursts injected, %d frames repaired", ps.bursts, ps.repaired))
	}
}

func (b *bench) drift(msg string) {
	b.failed++
	b.problems = append(b.problems, "determinism: "+msg)
}

func (b *bench) enoughSamples() bool {
	if b.trace {
		return len(b.waitMS) >= minSamples
	}
	n := 0
	for _, ps := range b.passes {
		n += len(ps.latMS)
	}
	return n >= minSamples
}

// probeSetups measures set-up in n fresh processes of this program.
func (b *bench) probeSetups(n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", b.w.name, "--seed", strconv.FormatInt(b.seed, 10), "--setup-probe")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the run
		if err := cmd.Run(); err != nil {
			return err
		}
		var pr probeResult
		if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &pr); err != nil {
			return fmt.Errorf("probe output %q: %w", out.String(), err)
		}
		b.setups = append(b.setups, pr.Setup)
		b.attempted += pr.Ops
		b.failed += pr.Failed
	}
	return nil
}

// traced follows the timed pass ps with its traced replay and the 1-byte
// round trips.
func (b *bench) traced(r *runner, tr *tracer, ps passStats) {
	first := len(tr.spans)
	rs := r.replay(tr, r.tee.wire, ps.wire)
	b.failed += rs.failed
	for _, err := range rs.errs {
		b.problems = append(b.problems, "replay: "+fmt.Sprint(err))
	}
	fp := replayPrintOf(rs)
	if b.replayFP == nil {
		b.replayFP = &fp
	} else if fp != *b.replayFP {
		b.drift(fmt.Sprintf("replay %d counts %+v, first replay %+v", tr.pass, fp, *b.replayFP))
	}
	if rs.repaired != ps.repaired {
		b.drift(fmt.Sprintf("replay repaired %d frames, the Reader %d", rs.repaired, ps.repaired))
	}
	b.replays = append(b.replays, rs)

	// Queue and head-of-line wait: emit - admit - the op's own select and
	// compress time in the replay. Only encode spans count: raw decodes
	// share the raw engine's span name and the segment's id.
	work := map[int]time.Duration{}
	for _, s := range tr.spans[first:] {
		if s.Parent < 0 || tr.spans[s.Parent].Name != replayEncode {
			continue
		}
		switch s.Name {
		case "codec.select", "gpu.v1", "gpu.v2", "codec.raw":
			work[s.ID] += time.Duration(s.End - s.Start)
		}
	}
	if ps.failed == 0 {
		for i := 0; i < len(ps.admit) && i < len(ps.emit); i++ {
			b.waitMS = append(b.waitMS, ms(ps.emit[i].Sub(ps.admit[i])-work[i]))
		}
	}

	b.spans = append(b.spans, len(tr.spans)-first)

	us, alloc, failed := r.fixedCost(fixedRounds)
	b.fixedUS = append(b.fixedUS, us...)
	b.fixedAlloc = append(b.fixedAlloc, alloc...)
	b.attempted += fixedRounds
	b.failed += failed
}

// fixedCost times n 1-byte stream round trips through the Writer and Reader.
func (r *runner) fixedCost(n int) (us, alloc []float64, failed int) {
	one := []byte{'x'}
	var wire bytes.Buffer
	for i := 0; i < n; i++ {
		wire.Reset()
		v := newVerifier(one, 1)
		a0, t0 := allocNow(), time.Now()
		wr := core.NewWriterOptions(&wire, r.params, core.StreamOptions{Codec: codec.Auto})
		_, err := wr.Write(one)
		if cerr := wr.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			var rd *core.Reader
			if rd, err = core.NewReaderOptions(bytes.NewReader(wire.Bytes()), r.params, core.ReaderOptions{}); err == nil {
				_, err = io.CopyBuffer(v, rd, r.copy)
			}
		}
		dt, da := time.Since(t0), allocNow()-a0
		us = append(us, float64(dt)/1e3)
		alloc = append(alloc, float64(da))
		failed += v.failures(err)
	}
	return us, alloc, failed
}

func mib(n int64) float64 { return float64(n) / (1 << 20) }

func mbps(n int64, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }

// opPercentile is a latency percentile over every timed pass's ops.
func (b *bench) opPercentile(q float64) (float64, int, bool) {
	var lat []float64
	for _, ps := range b.passes {
		lat = append(lat, ps.latMS...)
	}
	v, ok := percentile(lat, q)
	return v, len(lat), ok
}

// endToEndMetrics reduces the timed passes: each timing is the median of
// its per-pass values.
func (b *bench) endToEndMetrics() map[string]float64 {
	if len(b.passes) == 0 { // the set-up pass failed
		return nil
	}
	per := func(f func(ps passStats) float64) float64 {
		v := make([]float64, len(b.passes))
		for i, ps := range b.passes {
			v[i] = f(ps)
		}
		return median(v)
	}
	perDecode := func(f func(ps passStats) float64) float64 {
		v := make([]float64, len(b.decodes))
		for i, ps := range b.decodes {
			v[i] = f(ps)
		}
		return median(v)
	}
	m := map[string]float64{
		"setup_s":  median(b.setups),
		"enc_mbps": per(func(ps passStats) float64 { return mbps(ps.plain, ps.encWall) }),
		"dec_mbps": perDecode(func(ps passStats) float64 { return mbps(ps.plain, ps.decWall) }),
		"ratio":    float64(b.passes[0].wire) / float64(b.passes[0].plain),
		"enc_cpu_ms_per_mib": per(func(ps passStats) float64 {
			return ms(ps.encCPU) / mib(ps.plain)
		}),
		"dec_cpu_ms_per_mib": perDecode(func(ps passStats) float64 {
			return ms(ps.decCPU) / mib(ps.plain)
		}),
		"enc_alloc_bytes_per_byte": per(func(ps passStats) float64 {
			return float64(ps.encAlloc) / float64(ps.plain)
		}),
		"dec_alloc_bytes_per_byte": perDecode(func(ps passStats) float64 {
			return float64(ps.decAlloc) / float64(ps.plain)
		}),
	}
	if v, _, ok := b.opPercentile(0.50); ok {
		m["op_p50_ms"] = v
	}
	return m
}

// layerMetrics reduces the traced replays: per pass, each layer's span time
// per MiB of the pass's plaintext (or per byte, per group), then the
// median over passes.
func (b *bench) layerMetrics(tr *tracer) map[string]float64 {
	type sums struct {
		d map[string]time.Duration
		a map[string]uint64
	}
	byPass := make([]sums, len(b.replays))
	for i := range byPass {
		byPass[i] = sums{map[string]time.Duration{}, map[string]uint64{}}
	}
	path := map[int]bool{} // span indexes of replay.encode / replay.decode
	onPath := make([]time.Duration, len(b.replays))
	for i, s := range tr.spans {
		d := time.Duration(s.End - s.Start)
		if s.Name == replayEncode || s.Name == replayDecode {
			path[i] = true
			continue
		}
		byPass[s.Pass].d[s.Name] += d
		byPass[s.Pass].a[s.Name] += s.Alloc
		if path[s.Parent] {
			onPath[s.Pass] += d
		}
	}

	plain := b.w.plainBytes()
	perSpan := float64(spanCost())
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for i, rs := range b.replays {
		ps := b.passes[i]
		s := byPass[i]
		perMiB := func(span string) float64 { return ms(s.d[span]) / mib(plain) }
		perByte := func(span string) float64 { return float64(s.a[span]) / float64(plain) }
		frac := func(n int64) float64 { return float64(n) / float64(plain) }
		add("gpu.v2_ms_per_mib", perMiB("gpu.v2"))
		add("gpu.v2_post_ms_per_mib", ms(rs.v2Post)/mib(plain))
		add("gpu.v2_alloc_bytes_per_byte", perByte("gpu.v2"))
		add("gpu.v1_ms_per_mib", perMiB("gpu.v1"))
		add("gpu.v1_alloc_bytes_per_byte", perByte("gpu.v1"))
		add("gpu.decode_ms_per_mib", perMiB("gpu.decode"))
		add("gpu.model_kernel_ms_per_mib", ms(rs.kernel)/mib(plain))
		add("lzss.cmp_per_byte", frac(rs.search.Comparisons))
		add("lzss.positions_per_byte", frac(rs.search.Positions))
		add("codec.select_ms_per_mib", perMiB("codec.select"))
		add("codec.raw_ms_per_mib", perMiB("codec.raw"))
		add("codec.probe_frac", frac(rs.probe))
		add("codec.route_v1_frac", frac(rs.route[format.CodecCULZSSV1]))
		add("codec.route_v2_frac", frac(rs.route[format.CodecCULZSSV2]))
		add("codec.route_raw_frac", frac(rs.route[format.CodecStoreRaw]))
		add("format.frame_build_ms_per_mib", perMiB("format.frame_build"))
		add("format.overhead_bytes_frac", float64(rs.stream-rs.parity-rs.payload)/float64(rs.stream))
		add("format.parity_build_ms_per_mib", perMiB("format.parity_build"))
		add("format.parity_bytes_frac", float64(rs.parity)/float64(rs.stream))
		add("format.parse_ms_per_mib", perMiB("format.parse"))
		add("format.repair_parse_ms_per_mib", perMiB("format.repair_parse"))
		add("format.repaired_segments", float64(ps.repaired))
		add("format.unrepaired_segments", float64(ps.unrepaired))
		add("ecc.parity_ms_per_mib", perMiB("ecc.parity"))
		perGroup := 0.0
		if rs.damagedGroups > 0 {
			perGroup = ms(s.d["ecc.reconstruct"]) / float64(rs.damagedGroups)
		}
		add("ecc.reconstruct_ms_per_group", perGroup)
		cpu := ps.encCPU + ps.decCPU
		add("core.unattributed_frac", float64(cpu-onPath[i])/float64(cpu))
		add("trace.enc_mbps", mbps(plain, rs.encWall))
		add("trace.dec_mbps", mbps(plain, rs.decWall))
		add("trace.span_cost_frac", float64(b.spans[i])*perSpan/float64(rs.encWall+rs.decWall))
		add("real.enc_mbps", mbps(plain, ps.encWall))
		add("real.dec_mbps", mbps(plain, ps.decWall))
	}
	m := map[string]float64{}
	for k, v := range vals {
		m[k] = median(v)
	}
	var retries, degraded int
	var hits, total int64
	for _, ps := range b.passes {
		retries += ps.retries
		degraded += ps.degraded
		hits += ps.poolHits
		total += ps.poolTotal
	}
	m["core.writer_retries"] = float64(retries)
	m["core.writer_degraded"] = float64(degraded)
	m["core.reader_pool_hit_frac"] = float64(hits) / float64(max(total, 1))
	if v, ok := percentile(b.waitMS, 0.5); ok {
		m["core.writer_wait_ms_p50"] = v
	}
	m["core.stream_fixed_us"] = median(b.fixedUS)
	m["core.stream_fixed_alloc_bytes"] = median(b.fixedAlloc)
	m["trace.enc_overhead_frac"] = 1 - m["trace.enc_mbps"]/m["real.enc_mbps"]
	m["trace.dec_overhead_frac"] = 1 - m["trace.dec_mbps"]/m["real.dec_mbps"]
	return m
}

// spanCost is the wall time one span's bookkeeping takes, timed over
// empty spans on a scratch tracer.
func spanCost() time.Duration {
	const n = 1 << 14
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(), "empty", i)
	}
	return time.Since(t0) / n
}

// print writes the human-readable table, then the result line.
func (b *bench) print(out io.Writer, m map[string]float64) {
	mode := "end-to-end"
	list := endToEnd
	if b.trace {
		mode, list = "per-layer (traced replay)", perLayer
	}
	fmt.Fprintf(out, "perfbench %s seed=%d workers=%d passes=%d %s\n", b.w.name, b.seed, b.workers, len(b.passes), mode)
	tw := bufio.NewWriter(out)
	row := func(name, value, unit, note string) {
		fmt.Fprintf(tw, "  %-32s %14s %-8s %s\n", name, value, unit, note)
	}
	for _, u := range list {
		v, ok := m[u.name]
		switch {
		case !ok:
			row(u.name, "-", u.unit, "not reported: too few samples")
		default:
			row(u.name, strconv.FormatFloat(v, 'g', 6, 64), u.unit, b.sampleNote(u.name))
		}
	}
	if !b.trace {
		// The tails: printed, not in the result line (see README.md).
		for _, q := range []float64{0.90, 0.99} {
			name := fmt.Sprintf("op_p%.0f_ms", 100*q)
			if v, n, ok := b.opPercentile(q); ok {
				row(name, strconv.FormatFloat(v, 'g', 6, 64), "ms", fmt.Sprintf("%d samples", n))
			} else {
				row(name, "-", "ms", fmt.Sprintf("not reported: %d samples, fewer than %d beyond it", n, minBeyond))
			}
		}
	} else {
		row("real.enc_mbps", strconv.FormatFloat(m["real.enc_mbps"], 'g', 6, 64), "MB/s", "untraced Writer passes of this run")
		row("real.dec_mbps", strconv.FormatFloat(m["real.dec_mbps"], 'g', 6, 64), "MB/s", "untraced Reader passes of this run")
	}
	row("fail_frac", strconv.FormatFloat(float64(b.failed)/float64(max(b.attempted, 1)), 'g', 6, 64), "ratio",
		fmt.Sprintf("%d failed of %d ops", b.failed, b.attempted))
	for _, p := range b.problems {
		fmt.Fprintf(tw, "  FAIL %s\n", p)
	}
	tw.Flush()

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, u := range list {
		// A failed run can leave a figure without a valid sample (a rate
		// over no time); JSON has no Inf or NaN, so it is left out.
		if v, ok := m[u.name]; ok && !math.IsInf(v, 0) && !math.IsNaN(v) {
			res.Metrics[u.name] = value{v, u.unit}
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(out, string(line))
}

// sampleNote says how many samples stand behind a metric.
func (b *bench) sampleNote(name string) string {
	switch {
	case name == "setup_s":
		return fmt.Sprintf("median of %d set-ups", len(b.setups))
	case name == "ratio":
		return fmt.Sprintf("exact; the same on all %d passes", len(b.passes))
	case strings.HasPrefix(name, "op_"):
		_, n, _ := b.opPercentile(0.5)
		return fmt.Sprintf("%d samples", n)
	case name == "core.writer_wait_ms_p50":
		return fmt.Sprintf("%d samples", len(b.waitMS))
	case strings.HasPrefix(name, "core.stream_fixed"):
		return fmt.Sprintf("median of %d round trips", len(b.fixedUS))
	case b.trace:
		return fmt.Sprintf("median of %d replays", len(b.replays))
	case strings.HasPrefix(name, "dec_"):
		return fmt.Sprintf("median of %d decodes", len(b.decodes))
	}
	return fmt.Sprintf("median of %d passes", len(b.passes))
}

// writeSpans writes the traced run's spans as one JSON document.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
