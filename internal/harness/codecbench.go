package harness

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/lzss"
	"culzss/internal/stats"
)

// Codec-routing cells for the framed Writer. Like the Reader decode
// cells, the numbers ride the Modeled timing basis: each segment's
// compress cost is its device report's modeled total plus the host
// post-pass, raw-store segments charge a linear copy, and the Writer's
// pipeline shape — a worker pool feeding the serial in-order emitter —
// is scheduled deterministically. Same input, same codec route, same
// times on any host, which is what lets the bench gate hold `Writer v2`
// and `Writer auto` cells to a baseline.

// writerBenchWorkers is the encode-worker count the Writer cells model,
// mirroring the Reader cells' 8-wide pipeline.
const writerBenchWorkers = 8

// writerRun drives a framed Writer over data with the given codec route
// and returns the stream length plus the in-order segment reports.
func writerRun(data []byte, segSize int, name string, pool *lzss.SearchStats) (int, []core.SegmentReport, error) {
	var reports []core.SegmentReport
	var buf bytes.Buffer
	w := core.NewWriterOptions(&buf, core.Params{Stats: pool}, core.StreamOptions{
		SegmentSize: segSize,
		Codec:       name,
		OnSegment:   func(sr core.SegmentReport) { reports = append(reports, sr) },
	})
	if _, err := w.Write(data); err != nil {
		return 0, nil, fmt.Errorf("writer bench %s: %w", name, err)
	}
	if err := w.Close(); err != nil {
		return 0, nil, fmt.Errorf("writer bench %s: %w", name, err)
	}
	return buf.Len(), reports, nil
}

// modeledSegmentCost returns the modeled compress cost of one emitted
// segment: device schedule plus host post-pass for the GPU codecs, a
// linear copy for the raw store. Segments from the stats-modeled host
// engines (serial, pthread, bzip2) have no per-segment counters and
// report ok=false; callers model those from the shared stats pool.
func modeledSegmentCost(sr core.SegmentReport, saturated bool) (time.Duration, bool) {
	if sr.Report != nil {
		// Swap the report's measured host step for the modeled one, the
		// same substitution the Modeled compression grid makes, so the
		// totals are deterministic on any host.
		sys := SysV1
		if sr.Codec == format.CodecCULZSSV2 {
			sys = SysV2
		}
		sr.Report.HostTime = modeledHostPass(sys, sr.Report)
		if saturated {
			return sr.Report.SaturatedTotal(), true
		}
		return sr.Report.SimulatedTotal(), true
	}
	if sr.Codec == format.CodecStoreRaw {
		return cyclesToDuration(float64(sr.RawLen) * cyclesPerConcatByte), true
	}
	return 0, false
}

// WriterCodecCells benchmarks the framed Writer routed through each
// named codec over the C-files corpus and returns one BenchCell per
// route (System "Writer <name>"). Only the device-reporting routes — the
// GPU codecs and the adaptive selector, whose choices all carry
// per-segment costs — are supported; the stats-modeled host engines
// belong to the compression grid, not the Writer cells.
func WriterCodecCells(cfg Config, names []string) ([]BenchCell, error) {
	cfg.fill()
	data := datasets.CFiles(cfg.Size, cfg.Seed)
	segSize := (len(data) + readerSegments - 1) / readerSegments

	var cells []BenchCell
	for _, name := range names {
		streamLen, reports, err := writerRun(data, segSize, name, nil)
		if err != nil {
			return nil, err
		}
		compress := make([]time.Duration, len(reports))
		emit := make([]time.Duration, len(reports))
		for i, sr := range reports {
			c, ok := modeledSegmentCost(sr, cfg.Saturated)
			if !ok {
				return nil, fmt.Errorf("writer bench %s: segment %d has no per-segment cost model (codec %v)",
					name, sr.Index, sr.Codec)
			}
			compress[i] = c
			emit[i] = cyclesToDuration(float64(sr.FrameLen) * cyclesPerFrameByte)
		}
		total := pipelineMakespan(nil, compress, emit, writerBenchWorkers)
		cells = append(cells, BenchCell{
			Dataset:  "C files",
			System:   "Writer " + name,
			NsPerOp:  total.Nanoseconds(),
			SimMs:    float64(total.Nanoseconds()) / 1e6,
			RatioPct: float64(streamLen) / float64(len(data)) * 100,
		})
	}
	return cells, nil
}

// codecMix renders an in-order segment report list as a deterministic
// per-codec tally, e.g. "6×v2 + 4×v1 + 6×raw" (first-seen order).
func codecMix(reports []core.SegmentReport) string {
	counts := map[format.Codec]int{}
	var order []format.Codec
	for _, sr := range reports {
		if counts[sr.Codec] == 0 {
			order = append(order, sr.Codec)
		}
		counts[sr.Codec]++
	}
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	var b bytes.Buffer
	for i, c := range order {
		if i > 0 {
			b.WriteString(" + ")
		}
		name := c.String()
		if eng, ok := codec.Lookup(c); ok {
			name = eng.Name()
		}
		fmt.Fprintf(&b, "%d×%s", counts[c], name)
	}
	return b.String()
}

// AblationCodec is the codec-routing ablation: every dataset of the
// paper's corpus framed through V1, V2, the serial CPU engine, and the
// adaptive selector. The modeled total is the serial sum of per-segment
// compress costs (the pipeline shape is the Writer cells' concern; this
// table isolates the work each route performs), the ratio is the framed
// stream against the input, and the mix column shows what the selector
// actually chose. The selector's contract is visible in the rows: it
// matches the best fixed GPU route on compressible data and refuses to
// expand the random dataset past the raw-store header overhead.
func AblationCodec(cfg Config) (*Table, error) {
	cfg.fill()
	t := &Table{
		Title:   "Extension — per-segment codec routing (framed Writer)",
		Columns: []string{"dataset", "codec", "modeled compress", "ratio", "segments"},
		Notes: []string{
			fmt.Sprintf("%d segments per stream; ratio includes container + frame overhead.", readerSegments),
			"auto samples each segment (middle 32 KiB, byte-aligned V1 probe) and routes to v2, v1, or raw store.",
		},
	}
	routes := []string{"v1", "v2", "cpu", codec.Auto}
	for _, ds := range datasets.All() {
		data := ds.Gen(cfg.Size, cfg.Seed)
		segSize := (len(data) + readerSegments - 1) / readerSegments
		for _, name := range routes {
			var pool lzss.SearchStats
			streamLen, reports, err := writerRun(data, segSize, name, &pool)
			if err != nil {
				return nil, err
			}
			var total time.Duration
			for _, sr := range reports {
				c, ok := modeledSegmentCost(sr, cfg.Saturated)
				if !ok {
					// Stats-modeled host engine: the pool holds the whole
					// stream's counters; charge them once, serially.
					total = modeledSearchTime(pool, 1)
					break
				}
				total += c
			}
			t.Rows = append(t.Rows, []string{
				ds.Name, name,
				total.Round(time.Microsecond).String(),
				stats.RatioPercent(streamLen, len(data)),
				codecMix(reports),
			})
		}
	}
	return t, nil
}
