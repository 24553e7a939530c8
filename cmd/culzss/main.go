// Command culzss is the standalone compression program — the paper's
// "I/O version" (§III): it reads a file, compresses it with the codec
// named by -codec, and writes the container back out; -d reverses.
//
// Usage:
//
//	culzss [flags] input [output]            compress input
//	culzss -d [flags] input.clz [output]     decompress a container
//	culzss -info input.clz                   describe a container
//
// When output is omitted, compression appends ".clz" and decompression
// strips it (or appends ".out"). "-" means stdin/stdout, so the tool
// drops into Unix pipelines: `tar c dir | culzss - - > dir.tar.clz`.
//
// -stream switches compression to the framed streaming mode: the input is
// consumed incrementally and emitted as a sequence of self-describing
// segment frames (see internal/format), so memory stays bounded at
// O(segment × workers) no matter how large the pipe is. Decompression
// sniffs the input magic, so `-d` handles framed streams and bare
// containers alike; `-info` describes both.
//
// Examples:
//
//	culzss -codec v2 kernel.tar
//	culzss -stats big.dat compressed.clz           # -codec auto: V1, V2 or raw
//	culzss -d compressed.clz restored.dat
//	culzss -window 64 -tpb 128 -verify data.bin
//	tar c dir | culzss -stream -segment 262144 - - | ssh host culzss -d - -
//	culzss -stream -codec v2 kernel.tar kernel.clzs # match-per-thread kernel
//	culzss -stream -codec auto mixed.dat out.clzs   # per-segment V2/V1/raw
//	culzss -d -salvage damaged.clzs recovered.dat   # skip damaged segments
//	culzss -degrade -gpu-timeout 5s -stats big.dat  # supervised GPU dispatch
//
// -degrade arms the device-health supervisor on the GPU codecs: launch
// failures trip a per-device circuit breaker, the device is quarantined
// and re-probed, and when no healthy device remains the work degrades to
// the byte-identical CPU encoder instead of failing. -gpu-timeout adds a
// watchdog that cuts hung kernel dispatches at the given deadline (and
// implies -degrade). With -stats, the supervisor's counters and breaker
// logbook are printed to stderr.
//
// -metrics arms the observability registry (internal/obs) for the run and
// dumps every series in the Prometheus text exposition format to stderr
// when the tool exits — the same families README.md's "Observability"
// section documents and examples/gateway serves at /metrics.
//
// File outputs are atomic: the tool writes to a hidden temp file in the
// destination directory and renames it into place only on success, so a
// failed or interrupted run never leaves a truncated destination (stdout
// is exempt, of course). -resume goes further: compression runs through
// the crash-safe durable layer (internal/durable) — output accumulates
// in <output>.partial with frame-boundary fsyncs every -commit-every
// segments, and a rerun of the same command after a crash scans the
// partial, truncates to the last verifiable frame, and continues the
// stream instead of starting over:
//
//	culzss -resume -segment 1048576 big.dat big.clzs   # crash...
//	culzss -resume -segment 1048576 big.dat big.clzs   # ...picks up
//
// -resume implies -stream, needs a real output file (not "-"), and reads
// the input from the start on resume (the already-compressed prefix is
// skipped, so the input must be unchanged since the interrupted run).
//
// Exit codes distinguish failure classes so scripts can react: 0 success,
// 1 generic failure, 2 corrupt input (bad checksums, damaged records,
// wrong magic), 3 truncated input (the stream ends mid-record or without
// its trailer). With -salvage the tool writes every recoverable segment
// and still exits 2 or 3 so the damage is not silent.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"path/filepath"

	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/durable"
	"culzss/internal/format"
	"culzss/internal/health"
	"culzss/internal/lzss"
	"culzss/internal/obs"
	"culzss/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "culzss:", err)
		os.Exit(exitCode(err))
	}
}

// Exit codes (see package comment).
const (
	exitGeneric   = 1
	exitCorrupt   = 2
	exitTruncated = 3
)

// exitCode classifies err into the tool's exit codes. Truncation wins
// over corruption when both apply (a truncated tail is reported through a
// corrupt-segment record in salvage mode).
func exitCode(err error) int {
	if errors.Is(err, format.ErrTruncated) {
		return exitTruncated
	}
	var cse *format.CorruptSegmentError
	if errors.As(err, &cse) ||
		errors.Is(err, format.ErrCorrupt) ||
		errors.Is(err, format.ErrChecksum) ||
		errors.Is(err, format.ErrFrameChecksum) ||
		errors.Is(err, format.ErrFrameOrder) ||
		errors.Is(err, format.ErrBadMagic) ||
		errors.Is(err, format.ErrBadStreamMagic) {
		return exitCorrupt
	}
	return exitGeneric
}

func run(args []string) error {
	fs := flag.NewFlagSet("culzss", flag.ContinueOnError)
	var (
		decompress = fs.Bool("d", false, "decompress instead of compress")
		info       = fs.Bool("info", false, "describe a container and exit")
		dump       = fs.Bool("dump", false, "print token statistics of a CULZSS container and exit")
		codecName  = fs.String("codec", codec.Auto, "codec by registry name: v1, v2, cpu, pthread, bzip2, raw, or auto (adaptive selection per input, per segment with -stream)")
		chunk      = fs.Int("chunk", 0, "chunk size in bytes (0 = codec default)")
		tpb        = fs.Int("tpb", 0, "GPU threads per block (0 = 128)")
		window     = fs.Int("window", 0, "sliding window size (0 = codec default)")
		maxMatch   = fs.Int("maxmatch", 0, "maximum match length (0 = codec default)")
		verify     = fs.Bool("verify", false, "decompress after compressing and compare")
		showStats  = fs.Bool("stats", false, "print timing and ratio to stderr")
		profile    = fs.Bool("profile", false, "print the kernel profiler breakdown to stderr (GPU codecs)")
		stream     = fs.Bool("stream", false, "framed streaming mode: bounded memory, suitable for pipes of any size")
		segment    = fs.Int("segment", 0, "segment size in bytes for -stream (0 = 1 MiB)")
		salvage    = fs.Bool("salvage", false, "with -d: best-effort decode of a damaged framed stream, repairing damaged segments from parity frames when present and skipping what cannot be healed")
		parity     = fs.String("parity", "", "with -stream or -resume: self-healing redundancy as K+M (e.g. 8+2) — after every K segment frames, M parity frames from which -d -salvage repairs up to M damaged frames per group")
		resume     = fs.Bool("resume", false, "crash-safe compression: fsync at frame boundaries into <output>.partial and continue an interrupted run (implies -stream)")
		commitEach = fs.Int("commit-every", 1, "with -resume: fsync cadence in segment frames")
		gpuTimeout = fs.Duration("gpu-timeout", 0, "watchdog deadline per GPU dispatch; a hung kernel is cut and the work degrades to the CPU encoder (implies -degrade)")
		degrade    = fs.Bool("degrade", false, "supervise the GPU path: launch failures quarantine the device and the work degrades to the byte-identical CPU encoder instead of failing")
		metricsOut = fs.Bool("metrics", false, "dump the run's metrics (Prometheus text format) to stderr when done")
		dWorkers   = fs.Int("workers", 0, "with -d on a framed stream: decode worker-pool size — that many segments decompress concurrently, delivery stays in order (0 = GOMAXPROCS)")
		dPrefetch  = fs.Int("prefetch", 0, "with -d on a framed stream: depth of the in-order queue to delivery, not read-ahead; repair-mode read-ahead is one parity group (0 = worker count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fs.Usage()
		return fmt.Errorf("expected input [output], got %d args", fs.NArg())
	}
	in := fs.Arg(0)

	params := core.Params{
		ChunkSize:       *chunk,
		ThreadsPerBlock: *tpb,
		Window:          *window,
		MaxMatch:        *maxMatch,
	}
	if *gpuTimeout < 0 {
		return fmt.Errorf("-gpu-timeout must be >= 0, got %v", *gpuTimeout)
	}
	if *codecName != "" && *codecName != codec.Auto {
		if _, ok := codec.ByName(*codecName); !ok {
			return fmt.Errorf("unknown -codec %q (registered: %s, or %q)",
				*codecName, strings.Join(codec.Names(), ", "), codec.Auto)
		}
	}
	if *metricsOut {
		// Arm the observability registry and dump it on the way out —
		// success or failure, the counters describe what happened.
		params.Obs = obs.NewRegistry()
		defer func() {
			fmt.Fprintln(os.Stderr, "# culzss run metrics")
			if err := params.Obs.WritePrometheus(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "culzss: writing metrics:", err)
			}
		}()
	}
	if *degrade || *gpuTimeout > 0 {
		// Arm the device-health supervisor: per-device circuit breakers,
		// the hung-kernel watchdog (when -gpu-timeout is set), and the
		// byte-identical CPU degrade when the pool is exhausted. The host
		// codecs ignore the supervisor, so arming it is always safe.
		params.Health = health.NewPool(nil, 1, health.Policy{Deadline: *gpuTimeout, Obs: params.Obs})
	}

	if *info {
		return describe(in)
	}
	if *dump {
		return dumpTokens(in)
	}
	readInput := func() ([]byte, error) {
		if in == "-" {
			return io.ReadAll(os.Stdin)
		}
		return os.ReadFile(in)
	}
	writeOutput := func(path string, data []byte) error {
		if path == "-" {
			_, err := os.Stdout.Write(data)
			return err
		}
		a, err := newAtomicOutput(path)
		if err != nil {
			return err
		}
		if _, err := a.Write(data); err != nil {
			a.Abort()
			return err
		}
		return a.Close()
	}
	openInput := func() (io.ReadCloser, error) {
		if in == "-" {
			return io.NopCloser(os.Stdin), nil
		}
		return os.Open(in)
	}
	openOutput := func(path string) (io.WriteCloser, error) {
		if path == "-" {
			return nopWriteCloser{os.Stdout}, nil
		}
		return newAtomicOutput(path)
	}
	if *resume && *decompress {
		return fmt.Errorf("-resume applies to compression, not -d")
	}
	var parityCfg core.ParityConfig
	if *parity != "" {
		if *decompress {
			return fmt.Errorf("-parity applies to compression; -d -salvage uses whatever parity the stream carries")
		}
		if !*stream && !*resume {
			return fmt.Errorf("-parity needs -stream or -resume (parity frames live in framed streams)")
		}
		if n, err := fmt.Sscanf(*parity, "%d+%d", &parityCfg.K, &parityCfg.M); n != 2 || err != nil {
			return fmt.Errorf("-parity wants K+M (e.g. 8+2), got %q", *parity)
		}
		if parityCfg.K < 1 || parityCfg.K > format.MaxParityK ||
			parityCfg.M < 1 || parityCfg.M > format.MaxParityM {
			return fmt.Errorf("-parity %q out of range: K in [1,%d], M in [1,%d]",
				*parity, format.MaxParityK, format.MaxParityM)
		}
	}
	if *decompress {
		out := fs.Arg(1)
		if out == "" {
			if in == "-" {
				out = "-"
			} else {
				out = strings.TrimSuffix(in, ".clz")
				if out == in {
					out = in + ".out"
				}
			}
		}
		start := time.Now()
		// core.NewReader sniffs the input: framed streams ("CLZS") decode
		// incrementally with bounded memory, bare containers ("CLZ1") whole.
		src, err := openInput()
		if err != nil {
			return err
		}
		defer src.Close()
		// -salvage implies repair: when the stream carries parity frames,
		// damage is healed bit-identically before skip is even considered.
		ropts := core.ReaderOptions{
			Salvage:     *salvage,
			Repair:      *salvage,
			HostWorkers: *dWorkers,
			Prefetch:    *dPrefetch,
		}
		if *salvage {
			// Damage is reported as it is discovered, before the next
			// intact segment is served.
			ropts.OnCorrupt = func(cse *format.CorruptSegmentError) {
				fmt.Fprintln(os.Stderr, "culzss: salvage:", cse)
			}
			ropts.OnRepair = func(rse *format.RepairedSegmentError) {
				fmt.Fprintln(os.Stderr, "culzss: repair:", rse)
			}
		}
		r, err := core.NewReaderOptions(src, params, ropts)
		if err != nil {
			return err
		}
		// A Reader read to EOF tears its pipeline down itself; Close covers
		// the error paths that abandon the stream midway.
		defer r.Close()
		dst, err := openOutput(out)
		if err != nil {
			return err
		}
		n, err := io.Copy(dst, r)
		if err != nil {
			// Nothing usable was produced: drop the temp file so the
			// destination never appears truncated.
			abortOutput(dst)
			return err
		}
		if err := dst.Close(); err != nil {
			return err
		}
		if *showStats {
			fmt.Fprintf(os.Stderr, "decompressed %s -> %s (%s) in %v\n", in, out,
				stats.FormatBytes(n), time.Since(start).Round(time.Millisecond))
		}
		damaged, repaired := r.CorruptSegments(), r.RepairedSegments()
		if *showStats && *salvage {
			var skippedBytes int64
			for _, cse := range damaged {
				skippedBytes += cse.Skipped
			}
			fmt.Fprintf(os.Stderr, "salvage: {Repaired: %d, Skipped: %d, SkippedBytes: %s}\n",
				len(repaired), len(damaged), stats.FormatBytes(skippedBytes))
		}
		if len(repaired) > 0 && len(damaged) == 0 {
			// Every damaged region was healed bit-identically from parity:
			// the output is complete and verified, so the run succeeds —
			// the repairs were already reported on stderr above.
			fmt.Fprintf(os.Stderr, "culzss: salvage: %d damaged region(s) fully repaired from parity; output is complete\n",
				len(repaired))
		}
		if len(damaged) > 0 {
			// Every recoverable byte was written; still fail loudly so real
			// losses cannot pass unnoticed in scripts. Repaired regions do
			// not count — only damage beyond the parity's reach is a loss.
			regions, truncated := 0, false
			var skippedBytes int64
			for _, cse := range damaged {
				// A region whose cause is truncation (the cut tail, or the
				// missing-trailer marker) classifies the input as truncated;
				// anything else is in-stream corruption.
				if cse.Index == -1 || errors.Is(cse.Err, format.ErrTruncated) {
					truncated = true
				} else {
					regions++
				}
				skippedBytes += cse.Skipped
			}
			cause := error(format.ErrTruncated)
			if regions > 0 {
				cause = format.ErrCorrupt
			}
			return fmt.Errorf("salvage: recovered %s, but input had %d damaged region(s) (%s skipped, truncated: %v, %d repaired): %w",
				stats.FormatBytes(n), regions, stats.FormatBytes(skippedBytes), truncated, len(repaired), cause)
		}
		return nil
	}

	out := fs.Arg(1)
	if out == "" {
		if in == "-" {
			out = "-"
		} else {
			out = in + ".clz"
		}
	}

	if *resume {
		return compressDurable(in, out, params, *segment, *commitEach, parityCfg, *codecName, *showStats, openInput)
	}
	if *stream {
		return compressStream(in, out, params, *segment, parityCfg, *codecName, *showStats, openInput, openOutput)
	}

	data, err := readInput()
	if err != nil {
		return err
	}
	start := time.Now()
	comp, report, err := core.Compress(data, *codecName, params)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := writeOutput(out, comp); err != nil {
		return err
	}
	if *verify {
		back, err := core.Decompress(comp, core.Params{})
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if string(back) != string(data) {
			return fmt.Errorf("verify: round trip mismatch")
		}
		if *showStats {
			fmt.Fprintln(os.Stderr, "verify: ok")
		}
	}
	if *showStats {
		fmt.Fprintf(os.Stderr, "%s: %s -> %s (ratio %s) in %v\n",
			in, stats.FormatBytes(int64(len(data))), stats.FormatBytes(int64(len(comp))),
			stats.RatioPercent(len(comp), len(data)), elapsed.Round(time.Millisecond))
		if report != nil {
			fmt.Fprintf(os.Stderr, "gpu model: kernel %v, h2d %v, d2h %v, host %v, simulated total %v\n",
				report.Launch.KernelTime.Round(time.Microsecond), report.H2D.Round(time.Microsecond),
				report.D2H.Round(time.Microsecond), report.HostTime.Round(time.Microsecond),
				report.SimulatedTotal().Round(time.Microsecond))
		}
		printHealth(params.Health)
	}
	if *profile {
		if report == nil {
			fmt.Fprintln(os.Stderr, "profile: host codec, no kernel launched")
		} else {
			dev := params.Device
			if dev == nil {
				dev = core.Init().Device
			}
			fmt.Fprint(os.Stderr, report.Launch.Detail(dev))
		}
	}
	return nil
}

// printHealth reports the supervisor's counters to stderr when -degrade
// or -gpu-timeout armed a pool and -stats asked for the breakdown.
func printHealth(sup *health.Supervisor) {
	if sup == nil {
		return
	}
	snap := sup.Snapshot()
	fmt.Fprintf(os.Stderr,
		"gpu health: %d device(s), %d healthy, %d quarantined; %d redispatched, %d timed out, %d breaker open(s)\n",
		snap.Devices, snap.Healthy, snap.Quarantined, snap.Redispatched, snap.TimedOut, snap.BreakerOpens)
	for _, ev := range sup.Events() {
		fmt.Fprintf(os.Stderr, "gpu health: device %d %v -> %v (%s)\n", ev.Device, ev.From, ev.To, ev.Cause)
	}
}

// nopWriteCloser keeps stdout open across the "-" output path.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// atomicOutput accumulates the destination in a hidden temp file in the
// same directory and renames it into place on Close, so the destination
// path either holds the previous content or the complete new content —
// never a truncated mix.
type atomicOutput struct {
	f    *os.File
	path string
	done bool
}

func newAtomicOutput(path string) (*atomicOutput, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return nil, err
	}
	// CreateTemp's 0600 is for secrets; match what os.Create would have
	// produced.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &atomicOutput{f: f, path: path}, nil
}

func (a *atomicOutput) Write(p []byte) (int, error) { return a.f.Write(p) }

// Close commits: fsync, close, rename into place.
func (a *atomicOutput) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return os.Rename(a.f.Name(), a.path)
}

// Abort discards the temp file; the destination path is untouched.
func (a *atomicOutput) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}

// abortOutput discards an output opened through openOutput without
// committing it (a no-op close for stdout).
func abortOutput(w io.WriteCloser) {
	if a, ok := w.(*atomicOutput); ok {
		a.Abort()
		return
	}
	_ = w.Close()
}

// countingWriter counts bytes passed through to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// compressStream runs the framed streaming mode: input is consumed
// incrementally (never fully buffered), segments compress concurrently,
// and the output is a self-describing framed stream that decompresses
// through the ordinary -d path.
func compressStream(in, out string, params core.Params, segment int, parity core.ParityConfig, codecName string, showStats bool,
	openInput func() (io.ReadCloser, error), openOutput func(string) (io.WriteCloser, error)) error {
	src, err := openInput()
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := openOutput(out)
	if err != nil {
		return err
	}
	start := time.Now()
	cw := &countingWriter{w: dst}
	w := core.NewWriterOptions(cw, params, core.StreamOptions{SegmentSize: segment, Parity: parity, Codec: codecName})
	n, err := io.Copy(w, src)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		abortOutput(dst)
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}
	if showStats {
		fmt.Fprintf(os.Stderr, "%s: %s -> %s framed (ratio %s) in %v\n",
			in, stats.FormatBytes(n), stats.FormatBytes(cw.n),
			stats.RatioPercent(int(cw.n), int(n)), time.Since(start).Round(time.Millisecond))
		if params.Health != nil {
			st := w.Stats()
			fmt.Fprintf(os.Stderr,
				"stream health: %d segment(s), %d retries, %d degraded, %d redispatched, %d timed out, %d breaker open(s), %d quarantined\n",
				st.Segments, st.Retries, st.Degraded, st.Redispatched, st.TimedOut, st.BreakerOpens, st.Quarantined)
		}
		printHealth(params.Health)
	}
	return nil
}

// compressDurable runs -resume: compression through the crash-safe
// durable layer. Output accumulates in durable.PartialPath(out) with
// frame-boundary fsyncs; when a partial from an interrupted run exists
// it is scanned, truncated to the last verifiable frame, and continued —
// the already-covered input prefix is skipped, so the finished file
// matches an uninterrupted run byte for byte.
func compressDurable(in, out string, params core.Params, segment, commitEvery int, parity core.ParityConfig, codecName string, showStats bool,
	openInput func() (io.ReadCloser, error)) error {
	if out == "-" {
		return fmt.Errorf("-resume needs a real output file, not stdout")
	}
	src, err := openInput()
	if err != nil {
		return err
	}
	defer src.Close()
	start := time.Now()
	opts := durable.Options{
		CommitEverySegments: commitEvery,
		Stream:              core.StreamOptions{SegmentSize: segment, Parity: parity, Codec: codecName},
	}
	var (
		w   *durable.Writer
		rep *durable.TailReport
	)
	if _, serr := os.Stat(durable.PartialPath(out)); serr == nil {
		w, rep, err = durable.Resume(out, params, opts)
	} else {
		w, err = durable.Create(out, params, opts)
	}
	if err != nil {
		return err
	}
	var resumedBytes int64
	if rep != nil {
		resumedBytes = int64(rep.TotalLen)
		fmt.Fprintf(os.Stderr, "culzss: resuming %s: %d segment(s) / %s verified, %s unverifiable tail dropped\n",
			out, rep.NextIndex, stats.FormatBytes(int64(rep.TotalLen)), stats.FormatBytes(rep.Truncated))
		if rep.Repaired > 0 {
			fmt.Fprintf(os.Stderr, "culzss: resuming %s: %d torn frame(s) rebuilt in place from parity\n",
				out, rep.Repaired)
		}
		if rep.Complete {
			// The interrupted run had already finished; Resume renamed it.
			return nil
		}
		// The surviving frames already cover this input prefix.
		if _, err := io.CopyN(io.Discard, src, resumedBytes); err != nil {
			_ = w.Abort()
			return fmt.Errorf("skipping the already-compressed input prefix: %w", err)
		}
	}
	n, err := io.Copy(w, src)
	if err != nil {
		_ = w.Abort() // keep the partial: the next -resume run continues it
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if showStats {
		st := w.Stats()
		fmt.Fprintf(os.Stderr, "%s: %s compressed durably (+%s resumed) in %v; %d segment(s) written, %d committed, %d inherited\n",
			in, stats.FormatBytes(n), stats.FormatBytes(resumedBytes),
			time.Since(start).Round(time.Millisecond), st.Segments, st.Committed, st.Resumed)
	}
	return nil
}

// describeStream walks a framed stream's records without decompressing
// payloads.
func describeStream(path string, f *os.File) error {
	fr, err := format.NewFrameReader(f)
	if err != nil {
		return err
	}
	var segments, rawTotal, compTotal int
	codecs := map[format.Codec]int{}
	for {
		frame, trailer, err := fr.Next()
		if err != nil {
			return err
		}
		if trailer != nil {
			fmt.Printf("framed stream: %s\n", path)
			fmt.Printf("segment size:  %d (nominal)\n", fr.SegmentSize)
			fmt.Printf("segments:      %d\n", segments)
			if fr.ParityK > 0 {
				fmt.Printf("parity:        %d+%d (%d parity frames)\n", fr.ParityK, fr.ParityM, fr.ParityFrames)
			}
			// Sorted by codec value: adaptive streams mix codecs, and the
			// tally must print identically run to run.
			var order []format.Codec
			for c := range codecs {
				order = append(order, c)
			}
			sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
			for _, c := range order {
				fmt.Printf("codec:         %v (%d segments)\n", c, codecs[c])
			}
			fmt.Printf("original len:  %s\n", stats.FormatBytes(int64(trailer.TotalLen)))
			fmt.Printf("framed len:    %s\n", stats.FormatBytes(int64(compTotal)))
			fmt.Printf("ratio:         %s\n", stats.RatioPercent(compTotal, rawTotal))
			fmt.Printf("checksum:      %08x\n", trailer.Checksum)
			return nil
		}
		segments++
		rawTotal += frame.RawLen
		compTotal += len(frame.Container)
		if h, _, err := format.ParseHeader(frame.Container); err == nil {
			codecs[h.Codec]++
		}
	}
}

func dumpTokens(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	h, off, err := format.ParseHeader(data)
	if err != nil {
		return err
	}
	switch h.Codec {
	case format.CodecCULZSSV1, format.CodecCULZSSV2:
	default:
		return fmt.Errorf("-dump understands CULZSS token streams, not %v", h.Codec)
	}
	cfg := lzss.Config{Window: h.Window, MaxMatch: h.Lookahead, MinMatch: int(h.MinMatch)}
	payload := data[off:]
	var total lzss.StreamStats
	for _, b := range h.ChunkBounds() {
		tokens, err := lzss.ParseTokensByteAligned(payload[b.CompOff:b.CompOff+b.CompLen], b.UncompLen, &cfg)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", b.Index, err)
		}
		st := lzss.AnalyzeTokens(tokens)
		total.Literals += st.Literals
		total.Matches += st.Matches
		total.MatchedBytes += st.MatchedBytes
		total.TotalLen += st.TotalLen
		total.TotalDist += st.TotalDist
		if total.MinLen == 0 || (st.MinLen > 0 && st.MinLen < total.MinLen) {
			total.MinLen = st.MinLen
		}
		if st.MaxLen > total.MaxLen {
			total.MaxLen = st.MaxLen
		}
		if total.MinDist == 0 || (st.MinDist > 0 && st.MinDist < total.MinDist) {
			total.MinDist = st.MinDist
		}
		if st.MaxDist > total.MaxDist {
			total.MaxDist = st.MaxDist
		}
		for i := range st.LengthHist {
			total.LengthHist[i] += st.LengthHist[i]
		}
	}
	fmt.Printf("container:     %s (%v, %d chunks)\n", path, h.Codec, len(h.ChunkSizes))
	fmt.Print(total)
	return nil
}

func describe(path string) error {
	// Framed streams get the frame-walking description.
	if f, err := os.Open(path); err == nil {
		var magic [4]byte
		if _, perr := io.ReadFull(f, magic[:]); perr == nil && string(magic[:]) == format.StreamMagic {
			if _, serr := f.Seek(0, io.SeekStart); serr != nil {
				f.Close()
				return serr
			}
			defer f.Close()
			return describeStream(path, f)
		}
		f.Close()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	h, off, err := format.ParseHeader(data)
	if err != nil {
		return err
	}
	fmt.Printf("container:     %s\n", path)
	fmt.Printf("codec:         %v\n", h.Codec)
	fmt.Printf("window:        %d\n", h.Window)
	fmt.Printf("lookahead:     %d\n", h.Lookahead)
	fmt.Printf("min match:     %d\n", h.MinMatch)
	fmt.Printf("chunk size:    %d\n", h.ChunkSize)
	fmt.Printf("chunks:        %d\n", len(h.ChunkSizes))
	fmt.Printf("original len:  %s\n", stats.FormatBytes(int64(h.OriginalLen)))
	fmt.Printf("payload len:   %s (+%d header bytes)\n", stats.FormatBytes(int64(h.PayloadLen())), off)
	fmt.Printf("ratio:         %s\n", stats.RatioPercent(h.PayloadLen()+off, h.OriginalLen))
	fmt.Printf("checksum:      %08x\n", h.Checksum)
	return nil
}
