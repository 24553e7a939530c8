// Package core is the CULZSS library surface — the in-memory compression
// API of the paper's Figure 2, with the implementation chosen by codec
// name on the call (§V), the tuning knobs promised in §VII (window size,
// threads per block), and io.Reader/io.Writer streaming adapters.
//
// The paper's interface is
//
//	Gpu_init(); Gpu_compress(buf, len, out, params); Gpu_decompress(...)
//
// which maps here to Init (device detection), Compress / Decompress, and
// Params. Compress takes a codec registry name ("v1", "v2", "cpu",
// "pthread", "bzip2", "raw", or "auto"); Decompress dispatches on the
// container's codec byte, so any stream produced by this repository
// opens with the same call.
package core

import (
	"context"
	"fmt"

	"culzss/internal/codec"
	"culzss/internal/cudasim"
	"culzss/internal/faults"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/health"
	"culzss/internal/lzss"
	"culzss/internal/obs"
)

// Params are the compression parameters of the paper's API. The zero
// value is ready to use: the paper's defaults (4 KiB chunks, 128
// threads/block, 128-byte window).
type Params struct {
	// ChunkSize is the per-chunk granularity; 0 means the codec's
	// default (4 KiB for the GPU kernels, 256 KiB for the CPU parallel).
	ChunkSize int
	// ThreadsPerBlock is the GPU block width; 0 means 128 (§III.D).
	ThreadsPerBlock int
	// Window overrides the sliding-window size (§VII's tuning API);
	// 0 means the codec's preset. The GPU codecs accept at most 256,
	// the others at most 64 KiB.
	Window int
	// MaxMatch overrides the maximum match length; 0 means the preset.
	// It may exceed the minimum match by at most 65535 (255 on the GPU
	// codecs).
	MaxMatch int
	// Device is the simulated GPU; nil uses the device detected by Init.
	Device *cudasim.Device
	// HostWorkers bounds host-side parallelism; 0 means GOMAXPROCS.
	HostWorkers int
	// Stats, when non-nil, accumulates search statistics.
	Stats *lzss.SearchStats
	// Injector, when non-nil, arms the seeded fault-injection layer
	// (internal/faults) on the GPU paths: kernel launches, simulated
	// transfers, and per-chunk decode probe it for injected failures.
	// Production callers leave it nil; the nil Injector is inert.
	Injector *faults.Injector
	// Health, when non-nil, supervises the GPU paths with a device pool:
	// accelerated codecs route over healthy devices through per-device
	// circuit breakers and the watchdog, re-dispatching failures and
	// degrading to the byte-identical host encoder when the whole pool is
	// quarantined. The streaming Writer additionally reports the
	// supervisor's counters through Stats. Nil keeps single-device
	// dispatch under the retry policy (StreamOptions.Retry, or its
	// defaults for Compress).
	Health *health.Supervisor
	// Obs, when non-nil, mirrors the run into the observability layer
	// (internal/obs): the GPU paths report launch counters and stage
	// timings, the streaming Writer/Reader report segment counters and
	// lifecycle spans, and the health supervisor's counters appear when
	// its Policy carries the same registry. Nil is inert — production
	// paths that never arm it pay a pointer test.
	Obs *obs.Registry
}

// Info describes the detected (simulated) device, the paper's
// "library gets initialized when loaded, detects GPUs, and determines
// capabilities" step.
type Info struct {
	Device      *cudasim.Device
	CUDACores   int
	SharedPerSM int
}

// Init performs device detection and returns the capability report.
func Init() *Info {
	d := cudasim.FermiGTX480()
	return &Info{Device: d, CUDACores: d.SMs * d.CoresPerSM, SharedPerSM: d.SharedMemPerSM}
}

// lzssConfig applies the tuning overrides to a codec's LZSS preset. The
// GPU kernels stage the window in shared memory, so they cap it at 256.
func (p *Params) lzssConfig(cfg lzss.Config, gpuKernel bool) (lzss.Config, error) {
	if p.Window > 0 {
		cfg.Window = p.Window
	}
	if p.MaxMatch > 0 {
		cfg.MaxMatch = p.MaxMatch
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if gpuKernel && cfg.Window > 256 {
		return cfg, fmt.Errorf("core: GPU codecs need window <= 256, got %d", cfg.Window)
	}
	return cfg, nil
}

// Compress compresses data in memory per the paper's Gpu_compress with
// the registry engine called name ("v1", "v2", "cpu", "pthread",
// "bzip2", "raw"), or with the engine codec.SelectCodec picks for data
// when name is codec.Auto or empty. The returned buffer is a
// self-describing container; the report is nil for host engines and for
// a degraded run. Accelerated engines ride the gpu ladder at its default
// RetryPolicy — the supervised pool walk when Params.Health is armed, up
// to three device attempts otherwise — and degrade to the engine's
// byte-identical host twin.
func Compress(data []byte, name string, p Params) ([]byte, *gpu.Report, error) {
	eng, err := resolveEngine(name, data)
	if err != nil {
		return nil, nil, err
	}
	opts, err := p.engineOptions(eng)
	if err != nil {
		return nil, nil, err
	}
	if eng.Accelerated() {
		o, err := gpu.CompressSupervised(eng, data, opts, RetryPolicy{}, -1, "compress")
		return o.Container, o.Report, err
	}
	return eng.Compress(data, opts)
}

// Decompress expands any container produced by this repository,
// dispatching on the recorded codec.
func Decompress(container []byte, p Params) ([]byte, error) {
	out, _, err := decompressInto(nil, container, p, nil, p.HostWorkers)
	return out, err
}

// decompressInto is the decode core shared by Decompress and the
// streaming Reader's pipeline workers: Decompress with a caller-provided
// output buffer (honoured by the GPU codecs — the CPU codecs allocate
// their own), an explicit host-worker bound, and a cancellation context
// threaded through to the simulated device. A nil ctx means no
// cancellation; workers <= 0 means GOMAXPROCS (the gpu layer's default).
func decompressInto(dst, container []byte, p Params, ctx context.Context, workers int) ([]byte, *gpu.Report, error) {
	h, _, err := format.ParseHeader(container)
	if err != nil {
		return nil, nil, err
	}
	eng, ok := codec.Lookup(h.Codec)
	if !ok {
		return nil, nil, &codec.UnknownCodecError{Codec: h.Codec}
	}
	return eng.DecompressInto(dst, container, gpu.Options{
		Device: p.Device, ThreadsPerBlock: p.ThreadsPerBlock, HostWorkers: workers,
		Injector: p.Injector, Obs: p.Obs, Context: ctx,
	})
}

// ErrUnknownCodec re-exports the registry's sentinel: Decompress (and the
// streaming Reader) return an error matching it — and carrying the codec
// value via *codec.UnknownCodecError — when a container's codec byte is
// structurally valid but no registered engine claims it.
var ErrUnknownCodec = codec.ErrUnknownCodec

// engineOptions maps Params onto the gpu.Options an engine consumes,
// resolving the LZSS configuration preset that matches the engine's
// codec family (GPU presets for V1/V2, the Dipperstein preset for the
// bit-packed CPU codecs; bzip2 and raw take no LZSS config).
func (p *Params) engineOptions(eng codec.Engine) (gpu.Options, error) {
	opts := gpu.Options{
		Device:          p.Device,
		ChunkSize:       p.ChunkSize,
		ThreadsPerBlock: p.ThreadsPerBlock,
		HostWorkers:     p.HostWorkers,
		Stats:           p.Stats,
		Injector:        p.Injector,
		Health:          p.Health,
		Obs:             p.Obs,
	}
	var err error
	switch eng.Codec() {
	case format.CodecCULZSSV1:
		opts.Config, err = p.lzssConfig(lzss.CULZSSV1(), true)
	case format.CodecCULZSSV2:
		opts.Config, err = p.lzssConfig(lzss.CULZSSV2(), true)
	case format.CodecSerialBitPacked, format.CodecChunkedBitPacked:
		opts.Config, err = p.lzssConfig(lzss.Dipperstein(), false)
	}
	return opts, err
}

// resolveEngine maps a codec name (Compress, StreamOptions.Codec, the
// CLI's -codec) to an engine, running the adaptive selector on data for
// codec.Auto or an empty name.
func resolveEngine(name string, data []byte) (codec.Engine, error) {
	if name == "" || name == codec.Auto {
		if eng, ok := codec.Lookup(codec.SelectCodec(data)); ok {
			return eng, nil
		}
	} else if eng, ok := codec.ByName(name); ok {
		return eng, nil
	}
	return nil, fmt.Errorf("core: unknown codec %q (registered: %v, or %q)", name, codec.Names(), codec.Auto)
}
