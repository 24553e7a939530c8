package gpu

import (
	"fmt"
	"time"

	"culzss/internal/format"
	"culzss/internal/health"
)

// MultiGPUReport describes a multi-device run (§VII: "a multi GPU
// implementation can also increase the performance ... we suspect the
// division of the GPUs by threads introduced thread overhead").
type MultiGPUReport struct {
	// PerDevice holds each device's individual report (one entry per shard
	// that completed on a device; shards that degraded to the CPU under a
	// supervisor contribute no entry).
	PerDevice []*Report
	// BusTime is the serialized PCIe time: the devices share one host
	// root complex, so their copies contend.
	BusTime time.Duration
	// KernelSpan is the longest per-device kernel time (devices compute
	// concurrently).
	KernelSpan time.Duration
	// HostTime is the serial host-side assembly.
	HostTime time.Duration
	// DriverOverhead models the per-device host dispatch cost the paper
	// suspected ("thread overhead"): context switch + launch per device.
	DriverOverhead time.Duration
	InputBytes     int
	OutputBytes    int

	// Supervised-dispatch counters (all zero when Options.Health is nil):
	// Redispatched counts shards re-routed to a sibling device after a
	// failure; TimedOut counts watchdog-cut shard attempts; BreakerOpens
	// counts breaker Open transitions during the run; DegradedShards
	// counts shards the pool could not serve that fell back to the
	// byte-identical CPU encoder; Quarantined is the number of devices
	// left quarantined when the run finished.
	Redispatched, TimedOut, BreakerOpens, DegradedShards, Quarantined int
}

// SimulatedTotal composes the modeled end-to-end multi-GPU time: shared
// bus transfers serialize, kernels overlap, host work and driver
// dispatch overhead are serial.
func (r *MultiGPUReport) SimulatedTotal() time.Duration {
	return r.BusTime + r.KernelSpan + r.HostTime + r.DriverOverhead
}

// perDeviceDispatchOverhead is the modeled host cost of driving one
// additional GPU from its own host thread (context create/switch, launch
// and synchronisation churn). The paper's multi-GPU attempt saw no gains
// and suspected exactly this overhead; with 2000-era drivers a
// millisecond-scale cost per device per batch is realistic.
const perDeviceDispatchOverhead = 2 * time.Millisecond

// CompressV1MultiGPU splits the input across nGPUs simulated devices,
// compresses every shard with the V1 kernel, and reassembles one
// container. The report shows why small inputs see no speed-up: the
// shared PCIe bus serializes the transfers and the per-device dispatch
// overhead eats the kernel-time win — reproducing the paper's negative
// §VII observation — while large inputs do gain on the kernel span.
//
// Dispatch has two modes. Without a supervisor (opts.Health == nil) the
// shards are statically assigned — shard g runs on device g and the first
// failure aborts the run, attributed to its device. With a supervisor the
// assignment is dynamic: each shard prefers its home slot but any healthy
// device may serve it, a failed shard is re-dispatched to a sibling, and
// when the whole pool is quarantined the shard degrades to the
// byte-identical CPU encoder — the container is the same bytes either
// way. A cancelled opts.Context stops the run between shards.
func CompressV1MultiGPU(data []byte, opts Options, nGPUs int) ([]byte, *MultiGPUReport, error) {
	if nGPUs < 1 {
		return nil, nil, fmt.Errorf("gpu: need >= 1 GPU, got %d", nGPUs)
	}
	opts.fill(format.CodecCULZSSV1)
	base := opts.device()

	// Shard on chunk boundaries.
	chunkSize := opts.ChunkSize
	nChunks := max((len(data)+chunkSize-1)/chunkSize, 1)
	nGPUs = min(nGPUs, nChunks)
	perGPU := (nChunks + nGPUs - 1) / nGPUs

	sup := opts.Health
	var before health.Snapshot
	if sup != nil {
		before = sup.Snapshot()
	}

	rep := &MultiGPUReport{InputBytes: len(data)}
	var allStreams [][]byte
	for g := 0; g < nGPUs; g++ {
		shard := chunkSpan(data, chunkSize, g*perGPU, (g+1)*perGPU)
		if len(shard) == 0 && len(data) > 0 {
			break
		}
		// A cancelled context abandons the run between shards — the
		// cleanest stopping point (the in-flight shard has already been
		// adopted or discarded whole).
		if err := opts.ctxErr(); err != nil {
			return nil, nil, fmt.Errorf("gpu: shard %d: %w", g, err)
		}
		shardOpts, home := opts, -1
		if sup == nil {
			// Legacy fail-fast static assignment: shard g <-> device g.
			shardOpts.Device = base.Clone()
		} else {
			home = g % sup.Devices()
		}
		streams, res, err := v1Shard(shard, shardOpts, home, fmt.Sprintf("shard %d", g))
		if err != nil {
			if sup == nil {
				err = fmt.Errorf("gpu: device %d: %w", g, err)
			}
			return nil, nil, err
		}
		allStreams = append(allStreams, streams...)
		opts.Obs.Counter("culzss_multigpu_shards_total").Inc()
		if res.Degraded {
			rep.DegradedShards++
			opts.Obs.Counter("culzss_multigpu_degraded_shards_total").Inc()
			continue
		}
		r := res.Report
		rep.PerDevice = append(rep.PerDevice, r)
		rep.BusTime += r.H2D + r.D2H
		if r.Launch.KernelTime > rep.KernelSpan {
			rep.KernelSpan = r.Launch.KernelTime
		}
		rep.HostTime += r.HostTime
	}
	rep.DriverOverhead = time.Duration(len(rep.PerDevice)) * perDeviceDispatchOverhead
	if sup != nil {
		// Counter deltas over this run (the supervisor's counters are
		// lifetime-global; a pool is often shared across runs).
		after := sup.Snapshot()
		rep.Redispatched = after.Redispatched - before.Redispatched
		rep.TimedOut = after.TimedOut - before.TimedOut
		rep.BreakerOpens = after.BreakerOpens - before.BreakerOpens
		rep.Quarantined = after.Quarantined
	}

	container, concat := assembleContainer(format.CodecCULZSSV1, opts.Config, chunkSize, data, allStreams)
	rep.HostTime += concat
	rep.OutputBytes = len(container)
	return container, rep, nil
}

// v1Shard is the shard runner of the §VII schedulers (multi-GPU,
// streamed, hybrid): it compresses one chunk-aligned shard with the V1
// kernel and returns the shard's chunk streams, which alias the shard's
// container. Under opts.Health the shard rides the supervisor's pool
// (dispatch, with home and op as there); otherwise it is one CompressV1
// launch. The Outcome carries the shard's report and whether it degraded
// to the CPU.
func v1Shard(shard []byte, opts Options, home int, op string) ([][]byte, Outcome, error) {
	var res Outcome
	var err error
	if opts.Health != nil {
		res, err = dispatch(engineV1{}, opts.Health, shard, opts, home, op)
	} else {
		res.Container, res.Report, err = CompressV1(shard, opts)
	}
	if err != nil {
		return nil, res, err
	}
	// Unwrap the shard's container back into its chunk streams so one
	// final container covers the whole input.
	h, off, err := format.ParseHeader(res.Container)
	if err != nil {
		return nil, res, fmt.Errorf("gpu: %s: reparsing container: %w", op, err)
	}
	payload := res.Container[off:]
	streams := make([][]byte, len(h.ChunkSizes))
	for i, b := range h.ChunkBounds() {
		streams[i] = payload[b.CompOff : b.CompOff+b.CompLen]
	}
	return streams, res, nil
}

// chunkSpan returns chunks [c0, c1) of data cut at chunkSize: the one
// rule that sizes every V1 shard.
func chunkSpan(data []byte, chunkSize, c0, c1 int) []byte {
	return data[min(c0*chunkSize, len(data)):min(c1*chunkSize, len(data))]
}
