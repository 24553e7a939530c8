package gpu

import (
	"fmt"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/format"
)

// CompressV1Streamed is the §VII streaming extension: the input is split
// into stream slices processed through Fermi's concurrent copy-and-execute
// pipeline, so slice i+1's host-to-device copy overlaps slice i's kernel.
// Functionally the output container is identical to CompressV1's (the
// slices are split on chunk boundaries); only the simulated schedule
// changes. The report's H2D/D2H are folded into the pipelined kernel
// span, and HostTime remains the serial concatenation.
func CompressV1Streamed(data []byte, opts Options, streams int) ([]byte, *Report, error) {
	// Check everything before the empty-input early return so bad
	// stream counts, bad configs and a cancelled context error
	// consistently for every input.
	if streams < 1 {
		return nil, nil, fmt.Errorf("gpu: need >= 1 stream, got %d", streams)
	}
	if err := opts.enter(format.CodecCULZSSV1); err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		return CompressV1(data, opts)
	}
	// streams == 1 still goes through the pipeline path below so every
	// stream count reports on the same (saturated-slice) scheduling basis.

	// Slice on chunk boundaries so every chunk lands in exactly one
	// stream (the paper: "divide the input data into chunks of powers of
	// two sizes" — any chunk-aligned split preserves the output).
	chunkSize := opts.ChunkSize
	nChunks := (len(data) + chunkSize - 1) / chunkSize
	streams = min(streams, nChunks)
	perStream := (nChunks + streams - 1) / streams

	var stages []cudasim.PipelineStage
	var allStreams [][]byte
	var hostTotal time.Duration
	var launch *cudasim.LaunchReport

	for s := 0; s < streams; s++ {
		// A cancelled context abandons the pipeline between slices — the
		// cleanest point to stop a stuck stream (§VII's queue would drain
		// the in-flight slice the same way).
		if err := opts.ctxErr(); err != nil {
			return nil, nil, fmt.Errorf("gpu: stream %d: %w", s, err)
		}
		slice := chunkSpan(data, chunkSize, s*perStream, (s+1)*perStream)
		if len(slice) == 0 {
			break
		}
		// Supervised, the slice rides the device pool (redispatch on
		// failure, CPU degrade when the pool is out) so one sick device
		// cannot stall the stream.
		sliceStreams, res, err := v1Shard(slice, opts, -1, fmt.Sprintf("stream %d", s))
		if err != nil {
			return nil, nil, fmt.Errorf("gpu: stream %d: %w", s, err)
		}
		allStreams = append(allStreams, sliceStreams...)
		opts.Obs.Counter("culzss_streamed_slices_total").Inc()
		if res.Degraded {
			// A CPU-encoded slice contributes no pipeline stage and no
			// launch counters; the bytes are identical regardless.
			opts.Obs.Counter("culzss_streamed_degraded_slices_total").Inc()
			continue
		}
		// Saturated slice kernel times: wave-granularity artifacts of
		// slicing (16 blocks over 15 SMs leaving one SM double-loaded)
		// are scheduling noise a real stream queue backfills away.
		rep := res.Report
		stages = append(stages, cudasim.PipelineStage{
			H2D: rep.H2D, Kernel: rep.Launch.SaturatedKernelTime, D2H: rep.D2H,
		})
		hostTotal += rep.HostTime
		if launch == nil {
			launch = rep.Launch
		} else {
			accumulate(launch, rep.Launch)
		}
	}

	container, concat := assembleContainer(format.CodecCULZSSV1, opts.Config, chunkSize, data, allStreams)
	if launch == nil {
		// Every slice degraded to the CPU: synthesize an empty launch so
		// the report shape stays uniform.
		launch = &cudasim.LaunchReport{Kernel: "culzss_v1 (degraded)"}
	}
	pipelined := cudasim.PipelineSchedule(stages)
	// Fold the whole pipelined span into KernelTime so SimulatedTotal
	// (which would re-add transfer terms) sees zero separate transfers.
	launch.KernelTime = pipelined
	launch.SaturatedKernelTime = pipelined
	report := &Report{
		Launch:      launch,
		H2D:         0,
		D2H:         0,
		HostTime:    hostTotal + concat,
		InputBytes:  len(data),
		OutputBytes: len(container),
	}
	return container, report, nil
}

// accumulate folds counters of b into a (used when composing multi-launch
// runs into one report).
func accumulate(a, b *cudasim.LaunchReport) {
	a.Blocks += b.Blocks
	a.WarpCycles += b.WarpCycles
	a.MemStallCycles += b.MemStallCycles
	a.GlobalTransactions += b.GlobalTransactions
	a.GlobalBytes += b.GlobalBytes
	a.SharedAccesses += b.SharedAccesses
	a.SharedReplayCycles += b.SharedReplayCycles
	a.WallTime += b.WallTime
	a.KernelTime += b.KernelTime
	a.SaturatedKernelTime += b.SaturatedKernelTime
}
