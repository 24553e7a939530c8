package harness

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/gpu"
)

// Decompression-throughput cells for the streaming Reader's decode
// pipeline. Like the rest of the modeled basis, the numbers derive from
// operation counters and the simulator's schedule, not wall clock: each
// segment's decode cost is its GPU report's modeled total, the
// prefetcher's frame-read cost is a linear pass over the frame bytes,
// and the pipeline's makespan is computed by a deterministic
// earliest-free-worker schedule under in-order delivery. Same input,
// same times — host core count and scheduler noise cannot touch them,
// which is what lets a single-CPU CI runner assert a parallel-decode
// speedup.

// cyclesPerFrameByte is the prefetcher's modeled cost per encoded frame
// byte: one CRC pass plus buffer handling, the same order as the V1
// concatenation pass.
const cyclesPerFrameByte = 2

// readerSegments is the segment count the decode cells use: enough
// segments that an 8-wide pipeline stays full, few enough that the
// bench stays fast.
const readerSegments = 16

// ReaderDecodeCells benchmarks the framed Reader's decode pipeline at
// each worker count over the C-files corpus and returns one BenchCell
// per count (System "Reader Nw"). The stream is written once with the
// V1 GPU codec; per-segment modeled decode costs are collected through
// ReaderOptions.OnSegment during a real decode (so the cells also
// re-verify the plaintext round-trips), then scheduled by
// pipelineMakespan.
func ReaderDecodeCells(cfg Config, workerCounts []int) ([]BenchCell, error) {
	cfg.fill()
	data := datasets.CFiles(cfg.Size, cfg.Seed)
	segSize := (len(data) + readerSegments - 1) / readerSegments

	var stream bytes.Buffer
	w := core.NewWriterOptions(&stream, core.Params{}, core.StreamOptions{SegmentSize: segSize, Codec: "v1"})
	if _, err := w.Write(data); err != nil {
		return nil, fmt.Errorf("reader bench: writing stream: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("reader bench: closing stream: %w", err)
	}

	// One real decode collects the per-segment costs; frame-read cost is
	// approximated by the container bytes the prefetcher moves (the
	// framing overhead around them is a few dozen bytes per segment).
	var read, decode []time.Duration
	r, err := core.NewReaderOptions(bytes.NewReader(stream.Bytes()), core.Params{}, core.ReaderOptions{
		HostWorkers: 1,
		OnSegment: func(index, rawLen int, rep *gpu.Report) {
			if rep == nil {
				return
			}
			read = append(read, cyclesToDuration(float64(rep.InputBytes)*cyclesPerFrameByte))
			if cfg.Saturated {
				decode = append(decode, rep.SaturatedTotal())
			} else {
				decode = append(decode, rep.SimulatedTotal())
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("reader bench: opening stream: %w", err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("reader bench: decoding stream: %w", err)
	}
	if !bytes.Equal(out, data) {
		return nil, fmt.Errorf("reader bench: round-trip mismatch: got %d bytes, want %d", len(out), len(data))
	}

	var cells []BenchCell
	for _, workers := range workerCounts {
		total := pipelineMakespan(read, decode, nil, workers)
		cells = append(cells, BenchCell{
			Dataset:  "C files",
			System:   fmt.Sprintf("Reader %dw", workers),
			NsPerOp:  total.Nanoseconds(),
			SimMs:    float64(total.Nanoseconds()) / 1e6,
			RatioPct: float64(stream.Len()) / float64(len(data)) * 100,
		})
	}
	return cells, nil
}

// pipelineMakespan schedules per-segment costs through the stream
// pipeline's shape — a serial stage feeding `workers` workers, and a
// serial in-order stage after them — and returns the modeled total. It
// serves both directions: the Reader passes read (its prefetcher's
// frame reads) and no emit, the Writer emit (its emitter's frame writes)
// and no read. Segment i becomes available once the read stage reaches
// it (cumulative read cost), starts on the earliest-free worker, and its
// emit is paid after both its work and every earlier emit. Deterministic
// greedy assignment; with workers == 1 this degenerates to the serial
// schedule, so speedup ratios are self-consistent.
func pipelineMakespan(read, work, emit []time.Duration, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	free := make([]time.Duration, workers)
	var readDone, done time.Duration
	for i := range work {
		if read != nil {
			readDone += read[i]
		}
		w := 0
		for j := 1; j < workers; j++ {
			if free[j] < free[w] {
				w = j
			}
		}
		end := max(readDone, free[w]) + work[i]
		free[w] = end
		done = max(done, end)
		if emit != nil {
			done += emit[i]
		}
	}
	return done
}

// ExtensionParallelDecode is the ablation table for the Reader's decode
// pipeline: modeled decode totals for the C-files corpus across worker
// counts, with the speedup over the single-worker (pre-pipeline) Reader.
func ExtensionParallelDecode(cfg Config) (*Table, error) {
	cfg.fill()
	counts := []int{1, 2, 4, 8}
	cells, err := ReaderDecodeCells(cfg, counts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Extension — parallel pipelined stream decode (C files)",
		Columns: []string{"workers", "modeled total", "speedup vs 1w"},
		Notes: []string{
			"Reader pipeline: prefetcher + worker pool + in-order delivery (§III.C's overlap, decode side).",
			fmt.Sprintf("%d segments; per-segment cost = modeled GPU decompress, frame read = %d cycles/byte.", readerSegments, cyclesPerFrameByte),
		},
	}
	base := cells[0].NsPerOp
	for i, c := range cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", counts[i]),
			time.Duration(c.NsPerOp).Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(base)/float64(c.NsPerOp)),
		})
	}
	return t, nil
}
