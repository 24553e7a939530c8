package gpu

import (
	"fmt"
	"sync"
	"time"

	"culzss/internal/format"
	"culzss/internal/lzss"
)

// CompressV1Hybrid is the §VII heterogeneous extension: "a combined CPU
// and GPU heterogeneous implementation can give benefits for the
// execution time". A fraction of the chunks is compressed by host worker
// goroutines (the pthread path, at the CULZSS configuration so the output
// stream is identical) while the rest runs on the simulated GPU; the two
// halves proceed concurrently and the container stitches the chunk
// streams back in order.
//
// cpuFraction in [0,1] is the share of chunks given to the CPU; a
// negative value asks for an automatic split from a quick throughput
// probe of both sides.
type HybridReport struct {
	// GPU is the device report of the GPU share; nil when the share was
	// empty or (under a supervisor) degraded to the CPU encoder.
	GPU *Report
	// CPUTime is the measured host compression time of the CPU share.
	CPUTime time.Duration
	// CPUFraction is the share of chunks the CPU processed.
	CPUFraction float64
	// ProbeErr records why the automatic split probe fell back to an
	// all-GPU split ("" when the probe succeeded or was not requested).
	// The probe is advisory — its failure must not fail the run — but it
	// must not be silent either: a probe that dies on the same fault that
	// will kill the main run is the earliest available signal.
	ProbeErr string
	// GPUDegraded reports that the GPU share was encoded by the
	// byte-identical CPU fallback because the supervisor's pool was
	// exhausted (always false without a supervisor).
	GPUDegraded bool
	InputBytes  int
	OutputBytes int
}

// SimulatedTotal overlaps the CPU share with the simulated GPU share.
func (r *HybridReport) SimulatedTotal() time.Duration {
	gpuTime := time.Duration(0)
	if r.GPU != nil {
		gpuTime = r.GPU.SimulatedTotal()
	}
	if r.CPUTime > gpuTime {
		return r.CPUTime
	}
	return gpuTime
}

// CompressV1Hybrid splits the chunk range between CPU workers and the V1
// kernel.
func CompressV1Hybrid(data []byte, opts Options, cpuFraction float64) ([]byte, *HybridReport, error) {
	if cpuFraction > 1 {
		return nil, nil, fmt.Errorf("gpu: cpu fraction %v > 1", cpuFraction)
	}
	if err := opts.enter(format.CodecCULZSSV1); err != nil {
		return nil, nil, err
	}

	var probeErr string
	if cpuFraction < 0 {
		cpuFraction, probeErr = autoSplit(data, opts)
	}

	// Both shares fill one set of lanes. The CPU takes the tail chunks so
	// the GPU shard starts at chunk 0.
	lanes := newV1Lanes(data, &opts)
	defer lanes.release()
	nChunks := len(lanes.chunks)
	nCPU := min(int(float64(nChunks)*cpuFraction), nChunks)
	nGPU := nChunks - nCPU

	rep := &HybridReport{InputBytes: len(data), CPUFraction: cpuFraction, ProbeErr: probeErr}
	var wg sync.WaitGroup
	var gpuErr, cpuErr error
	wg.Add(1)
	go func() { // CPU share: the host chunk pool over the tail chunks.
		defer wg.Done()
		start := time.Now()
		cpuErr = format.RunChunks(nGPU, nChunks, opts.HostWorkers, func(i int) error {
			// A cancelled context abandons the CPU share between chunks
			// (nothing partial is kept).
			if err := opts.ctxErr(); err != nil {
				return fmt.Errorf("gpu: hybrid cpu chunk %d: %w", i, err)
			}
			_, err := lanes.encode(i)
			return err
		})
		rep.CPUTime = time.Since(start)
	}()

	// The GPU share counts its searches apart from the lanes', so
	// opts.Stats is added to once, after both shares succeed.
	var gpuStats lzss.SearchStats
	if nGPU > 0 {
		// Supervised, the GPU share rides the device pool with
		// redispatch and CPU degrade, so a sick device cannot fail the
		// hybrid run.
		gpuOpts := opts
		gpuOpts.Stats = &gpuStats
		var streams [][]byte
		var res Outcome
		streams, res, gpuErr = v1Shard(chunkSpan(data, opts.ChunkSize, 0, nGPU), gpuOpts, -1, "hybrid gpu shard")
		copy(lanes.streams, streams)
		rep.GPU, rep.GPUDegraded = res.Report, res.Degraded
	}
	wg.Wait()
	if gpuErr != nil {
		return nil, nil, gpuErr
	}
	if cpuErr != nil {
		return nil, nil, cpuErr
	}
	if opts.Stats != nil {
		opts.Stats.Add(gpuStats)
	}
	opts.addStats(lanes.stats)

	container, _ := assembleContainer(format.CodecCULZSSV1, opts.Config, opts.ChunkSize, data, lanes.streams)
	rep.OutputBytes = len(container)
	opts.Obs.Counter("culzss_hybrid_runs_total").Inc()
	if rep.GPUDegraded {
		opts.Obs.Counter("culzss_hybrid_gpu_degraded_total").Inc()
	}
	return container, rep, nil
}

// autoSplit probes both sides on a small sample and returns the CPU share
// that balances their finish times, plus a non-empty probe-failure
// description when either side's probe died (the split then defaults to
// all-GPU — advisory probe, surfaced not swallowed).
func autoSplit(data []byte, opts Options) (frac float64, probeErr string) {
	sample := data
	if len(sample) > 128<<10 {
		sample = sample[:128<<10]
	}
	if len(sample) == 0 {
		return 0, ""
	}
	start := time.Now()
	if _, err := lzss.EncodeByteAligned(sample, opts.Config, lzss.SearchBrute, nil); err != nil {
		return 0, fmt.Sprintf("cpu probe: %v", err)
	}
	cpuT := time.Since(start)
	opts.Stats = nil // the probe's searches are not the run's
	_, rep, err := CompressV1(sample, opts)
	if err != nil {
		return 0, fmt.Sprintf("gpu probe: %v", err)
	}
	gpuT := rep.SaturatedTotal()
	// Split inversely proportional to the per-byte times.
	c, g := float64(cpuT), float64(gpuT)
	if c+g == 0 {
		return 0, ""
	}
	frac = g / (c + g)
	if frac < 0.05 {
		frac = 0
	}
	if frac > 0.95 {
		frac = 0.95
	}
	return frac, ""
}
