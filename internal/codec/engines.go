package codec

import (
	"culzss/internal/bzip2"
	"culzss/internal/cpulzss"
	"culzss/internal/format"
	"culzss/internal/gpu"
)

// The built-in engines. Registration happens here, at package init, so
// every importer sees the full ladder: the two GPU kernels with their
// byte-identical host twins, the two CPU baselines, the bzip2 pipeline,
// and the raw store.
func init() {
	Register(engineCPU{})
	Register(enginePthread{})
	Register(engineV1{})
	Register(engineV2{})
	Register(engineBZip2{})
	Register(engineRaw{})
}

// cpuWorkers maps the shared options onto the CPU codecs' worker bound.
func cpuWorkers(opts gpu.Options) int { return opts.HostWorkers }

// ctxErr reports a cancelled options context (the host engines have no
// device to interrupt, so they check once at entry like the CPU twins).
func ctxErr(opts gpu.Options) error {
	if opts.Context == nil {
		return nil
	}
	return opts.Context.Err()
}

// --- Version 1: chunk-per-thread GPU kernel -----------------------------

type engineV1 struct{}

func (engineV1) Codec() format.Codec { return format.CodecCULZSSV1 }
func (engineV1) Name() string        { return "v1" }
func (engineV1) Accelerated() bool   { return true }

func (engineV1) Compress(data []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	return gpu.CompressV1(data, opts)
}

func (engineV1) CompressCPU(data []byte, opts gpu.Options) ([]byte, error) {
	return gpu.CompressV1CPU(data, opts)
}

func (engineV1) DecompressInto(dst, container []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	return gpu.DecompressInto(dst, container, opts)
}

// --- Version 2: match-per-thread GPU kernel -----------------------------

type engineV2 struct{}

func (engineV2) Codec() format.Codec { return format.CodecCULZSSV2 }
func (engineV2) Name() string        { return "v2" }
func (engineV2) Accelerated() bool   { return true }

func (engineV2) Compress(data []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	return gpu.CompressV2(data, opts)
}

func (engineV2) CompressCPU(data []byte, opts gpu.Options) ([]byte, error) {
	return gpu.CompressV2CPU(data, opts)
}

func (engineV2) DecompressInto(dst, container []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	return gpu.DecompressInto(dst, container, opts)
}

// --- Serial CPU baseline ------------------------------------------------

type engineCPU struct{}

func (engineCPU) Codec() format.Codec { return format.CodecSerialBitPacked }
func (engineCPU) Name() string        { return "cpu" }
func (engineCPU) Accelerated() bool   { return false }

func (engineCPU) Compress(data []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	if err := ctxErr(opts); err != nil {
		return nil, nil, err
	}
	out, err := cpulzss.CompressSerial(data, cpulzss.Options{Config: opts.Config, Stats: opts.Stats})
	return out, nil, err
}

func (e engineCPU) CompressCPU(data []byte, opts gpu.Options) ([]byte, error) {
	out, _, err := e.Compress(data, opts)
	return out, err
}

func (engineCPU) DecompressInto(dst, container []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	out, err := cpulzss.Decompress(container, cpuWorkers(opts))
	return out, nil, err
}

// --- Pthread-style chunked CPU baseline ---------------------------------

type enginePthread struct{}

func (enginePthread) Codec() format.Codec { return format.CodecChunkedBitPacked }
func (enginePthread) Name() string        { return "pthread" }
func (enginePthread) Accelerated() bool   { return false }

func (enginePthread) Compress(data []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	if err := ctxErr(opts); err != nil {
		return nil, nil, err
	}
	out, err := cpulzss.CompressParallel(data, cpulzss.Options{
		Config: opts.Config, ChunkSize: opts.ChunkSize, Workers: opts.HostWorkers, Stats: opts.Stats,
	})
	return out, nil, err
}

func (e enginePthread) CompressCPU(data []byte, opts gpu.Options) ([]byte, error) {
	out, _, err := e.Compress(data, opts)
	return out, err
}

func (enginePthread) DecompressInto(dst, container []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	out, err := cpulzss.Decompress(container, cpuWorkers(opts))
	return out, nil, err
}

// --- BZIP2 baseline -----------------------------------------------------

type engineBZip2 struct{}

func (engineBZip2) Codec() format.Codec { return format.CodecBZip2 }
func (engineBZip2) Name() string        { return "bzip2" }
func (engineBZip2) Accelerated() bool   { return false }

func (engineBZip2) Compress(data []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	if err := ctxErr(opts); err != nil {
		return nil, nil, err
	}
	out, err := bzip2.Compress(data, bzip2.Options{BlockSize: opts.ChunkSize, Workers: opts.HostWorkers})
	return out, nil, err
}

func (e engineBZip2) CompressCPU(data []byte, opts gpu.Options) ([]byte, error) {
	out, _, err := e.Compress(data, opts)
	return out, err
}

func (engineBZip2) DecompressInto(dst, container []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	out, err := bzip2.Decompress(container, cpuWorkers(opts))
	return out, nil, err
}
