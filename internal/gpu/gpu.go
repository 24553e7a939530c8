// Package gpu implements the two CULZSS compression kernels and the
// chunk-parallel decompression kernel on the cudasim device (paper §III.B,
// §III.C), plus the host-side steps the paper leaves on the CPU: bucket
// concatenation for Version 1 and the token-selection post-pass for
// Version 2.
//
// # Version 1 — chunk per thread (paper §III.B.1, Figure 3 left)
//
// The input is divided into fixed 4 KiB chunks. Each CUDA block receives
// ThreadsPerBlock chunks; every thread runs the full sequential LZSS loop
// over its own chunk, keeping its sliding window in shared memory (128
// threads x 128-byte windows = 16 KiB, which is why the paper notes that
// 256-512-thread configurations no longer fit, §V). Output goes to a
// per-chunk bucket; the host concatenates the partially-filled buckets
// into the final stream. Lanes of a warp each run an independent
// compressor, so control flow is almost fully divergent: the launch uses a
// high SIMT serialisation factor.
//
// # Version 2 — match per thread (paper §III.B.2, Figure 3 right)
//
// Each block owns one 4 KiB chunk and slides over it in tiles of
// ThreadsPerBlock positions. Per tile the block stages window + tile +
// lookahead extension into shared memory with one coalesced read, then
// every thread performs the full window scan for its own position — all
// positions are searched, including ones inside what will become a match
// (the redundant work the paper trades for SIMD uniformity). The extended
// staging gives every thread exactly the window a serial implementation
// would see (§III.B.2's "extended buffers"). Matches are recorded per
// position; the serial host post-pass walks them greedily, keeps the
// surviving tokens, generates the flag bytes, and drops the redundant
// matches (§III.B.3). Lanes execute the same scan loop, so the launch uses
// a near-zero serialisation factor — this uniformity is V2's whole point.
//
// # Wire format
//
// Both kernels emit the byte-aligned token stream of internal/lzss, framed
// by internal/format with the per-chunk compressed-size table that makes
// decompression chunk-parallel (§III.C).
package gpu

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/faults"
	"culzss/internal/format"
	"culzss/internal/health"
	"culzss/internal/lzss"
	"culzss/internal/obs"
)

// Model constants translating real executed work into simulated cycles.
// They are the per-lane costs of the kernels' inner loops; DESIGN.md §5
// describes the model.
const (
	// CyclesPerCompare is the per-lane cost of one window byte
	// comparison in the match loop: address computation, two loads'
	// issue slots, compare, branch and bookkeeping. The value calibrates
	// the model's absolute scale to Table I (the paper's V1 at 7.28 s
	// over 128 MB implies ~1200 SM-cycles per input byte).
	CyclesPerCompare = 24
	// CyclesPerOutputByte is the token-emission path per output byte.
	CyclesPerOutputByte = 6
	// CyclesPerDecodedByte is the decompression copy path per output byte.
	CyclesPerDecodedByte = 30

	// SerializationV1 is the SIMT divergence factor of the V1 kernel:
	// each lane runs an independent sequential compressor. The inner
	// compare loop is the same instruction sequence on every lane, so
	// warps partially reconverge; 0.60 calibrates the V1/V2 gap to the
	// ratios Table I implies (V2 ~1.7x faster on C files, V1 ~3x faster
	// on the DE map).
	SerializationV1 = 0.55
	// SerializationV2 is the divergence factor of the V2 kernel: lanes
	// run the same window-scan loop over the same-size window (the
	// paper: "all the threads compare the same number of characters"),
	// with residual divergence only in match-extension tails.
	SerializationV2 = 0.13
	// SerializationDecode is the factor for the chunk-parallel decoder
	// (divergent like V1, but the loop bodies are trivial copies).
	SerializationDecode = 0.70

	// uniformScanCap bounds a V2 lane's per-position scan charge at this
	// many times the window size (the shared-memory staging bounds how
	// far one lane's lockstep scan can extend before the next reload).
	uniformScanCap = 2
)

// DefaultChunkSize is the paper's 4 KiB chunk ("a reasonable choice for an
// average size of a network packet", §V).
const DefaultChunkSize = 4096

// DefaultThreadsPerBlock is the paper's best-performing block width
// (§III.D).
const DefaultThreadsPerBlock = 128

// Options configures a GPU compression or decompression run.
type Options struct {
	// Device is the simulated GPU; nil means cudasim.FermiGTX480().
	Device *cudasim.Device
	// ChunkSize is the uncompressed bytes per chunk; 0 means
	// DefaultChunkSize.
	ChunkSize int
	// ThreadsPerBlock is the block width; 0 means DefaultThreadsPerBlock.
	ThreadsPerBlock int
	// Config is the LZSS configuration. The zero value selects the preset
	// matching the kernel (lzss.CULZSSV1 or lzss.CULZSSV2).
	Config lzss.Config
	// UseSharedMemory keeps the search buffers in shared memory (the
	// paper's §III.D optimisation, default). DisableSharedMemory is the
	// ablation switch that models searching straight from global memory.
	DisableSharedMemory bool
	// DisableBankSkew turns off V2's four-character thread stagger
	// (§III.B.2); only observable on devices with LegacyBankSemantics.
	DisableBankSkew bool
	// OverlapHost overlaps the V2 host post-pass with the kernel in the
	// simulated total, the pipelining the paper describes in §V. Default
	// false (the paper's measured configuration is sequential).
	OverlapHost bool
	// HostWorkers bounds functional host parallelism; 0 means GOMAXPROCS.
	HostWorkers int
	// Stats, when non-nil, accumulates match-search counters.
	Stats *lzss.SearchStats
	// Injector, when non-nil, threads the deterministic fault-injection
	// subsystem through this run: kernel launches probe faults.SiteLaunch
	// (via the device's LaunchHook), modeled transfers probe
	// faults.SiteTransfer, and Decompress probes faults.SiteChunk per
	// chunk. Production paths leave it nil (zero cost beyond a pointer
	// test).
	Injector *faults.Injector
	// Context, when non-nil, is checked at launch, slice, shard and
	// chunk boundaries so a stuck or abandoned stream can be cancelled
	// cleanly (every entry point checks once up front; CompressV1Streamed
	// and CompressV1MultiGPU also stop between slices and shards, and
	// CompressV1Hybrid's CPU share between chunks). It is also handed to
	// the device's LaunchHook, so a hang injected at the launch site
	// unwedges when the context is cancelled.
	Context context.Context
	// Health, when non-nil, arms the resilient dispatch paths: the
	// multi-GPU, streamed and hybrid entry points route their V1 shards
	// (hybrid's GPU share is one shard) over the supervisor's device pool
	// through per-device circuit breakers and the watchdog,
	// re-dispatching failed shards to sibling devices and degrading to
	// the byte-identical CompressV1CPU encoder when the whole pool is
	// quarantined. Nil keeps the legacy fail-fast dispatch (first shard
	// error aborts the run, attributed to its device).
	Health *health.Supervisor
	// Obs, when non-nil, mirrors the run into the observability layer:
	// launch counters and modeled stage histograms per kernel, dispatch
	// spans (with device id and retry/degrade/timeout annotations) on the
	// supervised ladder, and shard/slice counters on the multi-GPU,
	// hybrid, and streamed paths. Nil is inert (the obs contract).
	Obs *obs.Registry
}

func (o *Options) device() *cudasim.Device {
	d := o.Device
	if d == nil {
		d = cudasim.FermiGTX480()
	}
	if o.Injector != nil {
		// Arm the launch site on a clone so the caller's device (often a
		// shared preset) is not mutated. An explicitly installed hook
		// stays in charge otherwise.
		d = d.Clone()
		d.LaunchHook = o.Injector.LaunchHook()
	}
	return d
}

// ctxErr reports the context's cancellation state (nil context = never
// cancelled).
func (o *Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// transferFault probes the injector's transfer site, naming the copy
// direction. The probe is context-aware: an injected transfer hang is cut
// when o.Context is cancelled (the watchdog's cancellation point for a
// wedged copy).
func (o *Options) transferFault(dir string) error {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.Injector.FaultCtx(ctx, faults.SiteTransfer); err != nil {
		return fmt.Errorf("gpu: %s transfer: %w", dir, err)
	}
	return nil
}

// faultRecorder collects chunk-level faults from a concurrent kernel
// deterministically: the *lowest* faulting chunk index wins regardless of
// which goroutine reports first, and tripped() lets the remaining threads
// early-abort once any fault is recorded (their results would be
// discarded anyway).
type faultRecorder struct {
	trip atomic.Bool
	mu   sync.Mutex
	idx  int
	err  error
}

// record notes a fault at chunk idx, keeping the lowest index seen.
func (r *faultRecorder) record(idx int, err error) {
	r.mu.Lock()
	if r.err == nil || idx < r.idx {
		r.idx, r.err = idx, err
	}
	r.mu.Unlock()
	r.trip.Store(true)
}

// tripped reports whether any fault has been recorded (the early-abort
// check threads poll before doing work).
func (r *faultRecorder) tripped() bool { return r.trip.Load() }

// error returns the recorded fault for the lowest chunk index, or nil.
func (r *faultRecorder) error() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (o *Options) fill(version format.Codec) {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.ThreadsPerBlock <= 0 {
		o.ThreadsPerBlock = DefaultThreadsPerBlock
	}
	if o.Config == (lzss.Config{}) {
		if version == format.CodecCULZSSV2 {
			o.Config = lzss.CULZSSV2()
		} else {
			o.Config = lzss.CULZSSV1()
		}
	}
}

// enter is every compress entry point's check: it fills the defaults for
// version, then refuses a cancelled context, an invalid configuration,
// and one whose offset or length does not fit the 16-bit token.
func (o *Options) enter(version format.Codec) error {
	o.fill(version)
	if err := o.ctxErr(); err != nil {
		return err
	}
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.Config.Window > 256 || o.Config.MaxMatch-o.Config.MinMatch > 255 {
		return fmt.Errorf("gpu: config %+v does not fit the 16-bit token", o.Config)
	}
	return nil
}

// addStats folds a run's per-chunk search counters into o.Stats, if set.
func (o *Options) addStats(perChunk []lzss.SearchStats) {
	if o.Stats == nil {
		return
	}
	for i := range perChunk {
		o.Stats.Add(perChunk[i])
	}
}

// Report describes one GPU run: the kernel launch report plus the modeled
// transfers and the measured host-side step.
type Report struct {
	Launch *cudasim.LaunchReport
	// H2D and D2H are the modeled PCIe transfer times.
	H2D, D2H time.Duration
	// HostTime is the measured duration of the serial host step (bucket
	// concatenation for V1/decode, token selection + flag generation for
	// V2). It runs on a real CPU here just as in the paper.
	HostTime time.Duration
	// HostOverlapped records whether HostTime was overlapped with the
	// kernel in SimulatedTotal.
	HostOverlapped bool
	// InputBytes and OutputBytes describe the run's data volume.
	InputBytes, OutputBytes int
}

// SimulatedTotal is the modeled end-to-end time: transfers + kernel +
// host step (overlapped with the kernel when the pipelining optimisation
// is on).
func (r *Report) SimulatedTotal() time.Duration {
	return r.total(r.Launch.KernelTime)
}

// SaturatedTotal is SimulatedTotal with the saturated-device kernel time:
// the end-to-end time a grid large enough to fill every SM would take
// per unit of this run's work. Comparisons between kernels at small
// benchmark sizes use this (the paper's 128 MB runs saturate the device;
// kilobyte-scale test inputs do not).
func (r *Report) SaturatedTotal() time.Duration {
	return r.total(r.Launch.SaturatedKernelTime)
}

func (r *Report) total(kernel time.Duration) time.Duration {
	t := r.H2D + r.D2H
	if r.HostOverlapped {
		if r.HostTime > kernel {
			kernel = r.HostTime
		}
		return t + kernel
	}
	return t + kernel + r.HostTime
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s: %d B -> %d B, kernel %v, h2d %v, d2h %v, host %v, total %v",
		r.Launch.Kernel, r.InputBytes, r.OutputBytes,
		r.Launch.KernelTime, r.H2D, r.D2H, r.HostTime, r.SimulatedTotal())
}

// assembleContainer performs the host concatenation step (paper §III.B.3:
// "a final separate process to concatenate only the compressed data into a
// continuous stream") and returns the container plus the measured host
// time.
func assembleContainer(codec format.Codec, cfg lzss.Config, chunkSize int, data []byte, streams [][]byte) ([]byte, time.Duration) {
	start := time.Now()
	out := format.Assemble(&format.Header{
		Codec:     codec,
		MinMatch:  uint8(cfg.MinMatch),
		Window:    cfg.Window,
		Lookahead: cfg.MaxMatch,
		ChunkSize: chunkSize,
	}, data, streams)
	return out, time.Since(start)
}

// totalLen sums the lengths of bufs.
func totalLen(bufs [][]byte) int {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	return n
}
