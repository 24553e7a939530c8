package cudasim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Global is a device-resident byte buffer. Kernels access it through the
// BlockCtx copy primitives so the simulator can account transactions; the
// host reads it back with Bytes after the launch.
type Global struct {
	name string
	data []byte
}

// NewGlobal allocates a device buffer wrapping data (no copy; the host
// transfer cost is modeled separately via Device.TransferTime, since the
// paper's API receives buffers already in host memory and copies them in).
func NewGlobal(name string, data []byte) *Global {
	return &Global{name: name, data: data}
}

// Bytes exposes the buffer contents (host view after a launch).
func (g *Global) Bytes() []byte { return g.data }

// Len returns the buffer size.
func (g *Global) Len() int { return len(g.data) }

// LaunchConfig shapes a phased kernel launch.
type LaunchConfig struct {
	// Kernel names the launch in reports.
	Kernel string
	// Blocks is the 1-D grid size.
	Blocks int
	// ThreadsPerBlock is the 1-D block size (128 in the paper §III.D).
	ThreadsPerBlock int
	// SharedPerBlock declares the block's shared-memory budget in bytes.
	// BlockCtx.Shared allocations are checked against it and it feeds the
	// occupancy calculation.
	SharedPerBlock int
	// Serialization is the SIMT divergence factor in [0,1]: a warp's cost
	// is max(lanes) + Serialization*(sum(lanes)-max(lanes)). 0 models a
	// perfectly uniform (lockstep) kernel, 1 a fully divergent one whose
	// lanes serialise. The CULZSS kernels document their values.
	Serialization float64
	// HostWorkers bounds the goroutines executing blocks functionally;
	// 0 means GOMAXPROCS. This affects wall-clock only, never the model.
	HostWorkers int
	// Context, when non-nil, is handed to the device's LaunchHook so a
	// blocking hook (an injected hang) can be cut by cancelling the
	// launch; nil means context.Background(). The kernel body itself is
	// not preempted — cancellation points live in the hook and in the
	// callers' chunk/shard loops.
	Context context.Context
}

func (c *LaunchConfig) validate(d *Device) error {
	switch {
	case c.Blocks < 0:
		return fmt.Errorf("cudasim: negative grid")
	case c.ThreadsPerBlock < 1 || c.ThreadsPerBlock > d.MaxThreadsPerBlock:
		return fmt.Errorf("cudasim: threads per block %d out of range [1,%d]", c.ThreadsPerBlock, d.MaxThreadsPerBlock)
	case c.SharedPerBlock < 0 || c.SharedPerBlock > d.MaxSharedPerBlock:
		return fmt.Errorf("cudasim: shared per block %d out of range [0,%d]", c.SharedPerBlock, d.MaxSharedPerBlock)
	case c.Serialization < 0 || c.Serialization > 1:
		return fmt.Errorf("cudasim: serialization %v out of [0,1]", c.Serialization)
	}
	if blocksPerSM, _ := d.Occupancy(c.ThreadsPerBlock, c.SharedPerBlock); blocksPerSM == 0 {
		return fmt.Errorf("cudasim: block shape (%d threads, %d B shared) does not fit on an SM", c.ThreadsPerBlock, c.SharedPerBlock)
	}
	return nil
}

// LaunchReport summarises one kernel launch: the model's counters and the
// simulated and measured times.
type LaunchReport struct {
	Kernel          string
	Blocks          int
	ThreadsPerBlock int
	SharedPerBlock  int

	BlocksPerSM int
	Occupancy   float64

	// WarpCycles is the divergence-adjusted sum of warp execution cycles
	// across all blocks (compute plus shared-memory replay).
	WarpCycles int64
	// MemStallCycles is the modeled exposed global-memory latency.
	MemStallCycles int64
	// GlobalTransactions and GlobalBytes count device-memory traffic.
	GlobalTransactions int64
	GlobalBytes        int64
	// SharedAccesses counts shared-memory accesses; SharedReplayCycles is
	// the extra cost bank conflicts added.
	SharedAccesses     int64
	SharedReplayCycles int64

	// KernelTime is the simulated device execution time with the grid's
	// actual block-to-SM placement.
	KernelTime time.Duration
	// SaturatedKernelTime is the kernel time with the total work spread
	// evenly over every SM — the asymptotic time of a grid large enough
	// to fill the device. Small benchmark inputs under-fill the GPU
	// (the paper's 128 MB runs do not), so scale-free comparisons
	// between kernels use this.
	SaturatedKernelTime time.Duration
	// WallTime is the measured host execution time of the simulation.
	WallTime time.Duration
}

// blockAccount accumulates one block's counters.
type blockAccount struct {
	warpCycles         int64
	globalTransactions int64
	globalBytes        int64
	sharedAccesses     int64
	sharedReplay       int64
}

// ThreadCtx is the per-thread accounting handle passed to Parallel bodies.
type ThreadCtx struct {
	// Tid is the thread index within the block.
	Tid int
	// GlobalID is Block.Index*ThreadsPerBlock + Tid.
	GlobalID int

	block      *BlockCtx
	laneCycles int64
}

// Work charges n shader cycles of arithmetic to this lane.
func (t *ThreadCtx) Work(n int64) { t.laneCycles += n }

// SharedAccess charges n shared-memory accesses whose warp-wide pattern has
// the given bank-conflict degree (1 = conflict-free). Each access costs
// degree cycles on this lane and is counted in the launch totals.
func (t *ThreadCtx) SharedAccess(n int64, conflictDegree int) {
	if conflictDegree < 1 {
		conflictDegree = 1
	}
	t.laneCycles += n * int64(conflictDegree)
	t.block.acct.sharedAccesses += n
	t.block.acct.sharedReplay += n * int64(conflictDegree-1)
}

// GlobalAccess accounts device-memory traffic this lane is responsible for
// without moving bytes. Kernels whose functional data flow goes through
// host-visible slices (the compression kernels stream their input through
// staged buffers but write results into host-mapped arrays) use this to
// keep the traffic model honest.
func (t *ThreadCtx) GlobalAccess(transactions, bytes int64) {
	t.block.acct.globalTransactions += transactions
	t.block.acct.globalBytes += bytes
}

// BlockCtx is the per-block view a phased kernel runs against.
type BlockCtx struct {
	// Index is the block index in the 1-D grid.
	Index int
	// NumThreads is the block width.
	NumThreads int

	dev        *Device
	cfg        *LaunchConfig
	acct       blockAccount
	sharedUsed int
	shared     []byte    // backing for Shared, reused by the worker's next block
	lanes      []int64   // per-thread cycles within the current phase
	lane       ThreadCtx // the context Parallel hands each lane in turn
}

// Shared allocates n bytes of the block's shared memory, zeroed. The sum of
// a block's allocations must stay within LaunchConfig.SharedPerBlock. Like
// device shared memory, the bytes live only until the block returns.
func (b *BlockCtx) Shared(n int) []byte {
	if n < 0 {
		panic(launchFault{fmt.Errorf("cudasim: negative shared allocation")})
	}
	start := b.sharedUsed
	b.sharedUsed += n
	if b.sharedUsed > b.cfg.SharedPerBlock {
		panic(launchFault{fmt.Errorf("cudasim: block %d shared memory overflow: %d > budget %d",
			b.Index, b.sharedUsed, b.cfg.SharedPerBlock)})
	}
	if b.shared == nil {
		b.shared = make([]byte, b.cfg.SharedPerBlock)
	}
	s := b.shared[start:b.sharedUsed:b.sharedUsed]
	clear(s)
	return s
}

// launchFault carries kernel-detected errors through panic/recover so that
// kernels can abort a launch without plumbing error returns through phases.
type launchFault struct{ err error }

// Fault aborts the launch with the given error.
func (b *BlockCtx) Fault(err error) {
	panic(launchFault{fmt.Errorf("cudasim: block %d: %w", b.Index, err)})
}

// Parallel runs fn once per thread in the block. Threads within a phase are
// semantically concurrent: a correct kernel must not depend on the order in
// which lanes run, and writes by one lane are visible to others only in the
// next phase (the implicit barrier between phases is CUDA's __syncthreads
// in the bulk-synchronous model). The lanes run one after another on one
// reused ThreadCtx, so t is valid only until fn returns.
func (b *BlockCtx) Parallel(fn func(t *ThreadCtx)) {
	if b.lanes == nil {
		b.lanes = make([]int64, b.NumThreads)
	}
	t := &b.lane
	for tid := 0; tid < b.NumThreads; tid++ {
		*t = ThreadCtx{Tid: tid, GlobalID: b.Index*b.NumThreads + tid, block: b}
		fn(t)
		b.lanes[tid] = t.laneCycles
	}
	// Fold the phase's lane costs into divergence-adjusted warp cycles.
	s := b.cfg.Serialization
	for w := 0; w < b.NumThreads; w += WarpSize {
		end := w + WarpSize
		if end > b.NumThreads {
			end = b.NumThreads
		}
		var sum, max int64
		for _, c := range b.lanes[w:end] {
			sum += c
			if c > max {
				max = c
			}
		}
		b.acct.warpCycles += max + int64(s*float64(sum-max))
	}
	for i := range b.lanes {
		b.lanes[i] = 0
	}
}

// GlobalReadCoalesced copies len(dst) bytes from g at byte offset off into
// dst (typically a shared buffer), modeling the block's threads reading
// consecutive bytes: warp after warp, lane i of a warp reads byte
// base+i (the paper's "each thread reads 1 byte ... one memory transaction"
// pattern, §III.D). Cost: one transaction per distinct 128-byte segment.
func (b *BlockCtx) GlobalReadCoalesced(dst []byte, g *Global, off int) {
	n := len(dst)
	if off < 0 || off+n > len(g.data) {
		b.Fault(fmt.Errorf("global read [%d,%d) out of %q bounds %d", off, off+n, g.name, len(g.data)))
	}
	copy(dst, g.data[off:off+n])
	b.recordGlobal(off, 1, 1, n)
}

// recordGlobal accounts a unit-stride block-wide access of n bytes at off.
func (b *BlockCtx) recordGlobal(off, stride, elem, n int) {
	if n <= 0 {
		return
	}
	first := off / TransactionBytes
	last := (off + n - 1) / TransactionBytes
	b.acct.globalTransactions += int64(last - first + 1)
	b.acct.globalBytes += int64(n)
}

// LaunchPhased executes a bulk-synchronous kernel over the grid and returns
// the performance report. Kernels run functionally on a host worker pool;
// the timing in the report comes from the device model.
func (d *Device) LaunchPhased(cfg LaunchConfig, kernel func(b *BlockCtx)) (*LaunchReport, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(d); err != nil {
		return nil, err
	}
	if d.LaunchHook != nil {
		ctx := cfg.Context
		if ctx == nil {
			ctx = context.Background()
		}
		if err := d.LaunchHook(ctx, cfg.Kernel); err != nil {
			return nil, fmt.Errorf("cudasim: launch failed: %w", err)
		}
	}
	workers := cfg.HostWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Blocks {
		workers = cfg.Blocks
	}

	start := time.Now()
	accounts := make([]blockAccount, cfg.Blocks)
	var (
		wg       sync.WaitGroup
		faultMu  sync.Mutex
		faultErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One context per worker, reset for each block it runs.
			b := &BlockCtx{NumThreads: cfg.ThreadsPerBlock, dev: d, cfg: &cfg}
			for idx := range next {
				func() {
					defer func() {
						if r := recover(); r != nil {
							f, ok := r.(launchFault)
							if !ok {
								panic(r)
							}
							faultMu.Lock()
							if faultErr == nil {
								faultErr = f.err
							}
							faultMu.Unlock()
						}
					}()
					b.Index, b.acct, b.sharedUsed = idx, blockAccount{}, 0
					kernel(b)
					accounts[idx] = b.acct
				}()
			}
		}()
	}
	for idx := 0; idx < cfg.Blocks; idx++ {
		next <- idx
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	if faultErr != nil {
		return nil, faultErr
	}

	return d.assemble(&cfg, accounts, wall), nil
}

// assemble folds per-block accounts into the launch report and applies the
// timing model.
func (d *Device) assemble(cfg *LaunchConfig, accounts []blockAccount, wall time.Duration) *LaunchReport {
	blocksPerSM, occupancy := d.Occupancy(cfg.ThreadsPerBlock, cfg.SharedPerBlock)
	r := &LaunchReport{
		Kernel:          cfg.Kernel,
		Blocks:          cfg.Blocks,
		ThreadsPerBlock: cfg.ThreadsPerBlock,
		SharedPerBlock:  cfg.SharedPerBlock,
		BlocksPerSM:     blocksPerSM,
		Occupancy:       occupancy,
		WallTime:        wall,
	}

	// Latency hiding: resident warps beyond the issuing one overlap global
	// latency; with R resident warps an exposed transaction costs
	// latency/max(1, R/2) cycles (a standard throughput approximation).
	warpsPerBlock := (cfg.ThreadsPerBlock + WarpSize - 1) / WarpSize
	resident := float64(blocksPerSM * warpsPerBlock)
	hiding := resident / 2
	if hiding < 1 {
		hiding = 1
	}

	// An SM retires a full warp instruction every WarpSize/CoresPerSM
	// cycles (1 on Fermi's 32-SP SMs, 4 on GT200's 8-SP SMs), so warp
	// cycles scale by the issue factor before scheduling.
	issue := float64(WarpSize) / float64(d.CoresPerSM)
	if issue < 1 {
		issue = 1
	}

	// Greedy wave assignment of blocks to SMs: each SM executes its blocks
	// back to back; concurrent residency buys latency hiding, not extra
	// issue throughput.
	sms := make([]int64, d.SMs)
	for _, a := range accounts {
		stall := int64(float64(a.globalTransactions*d.GlobalLatencyCycles) / hiding)
		cycles := int64(float64(a.warpCycles)*issue) + stall
		// Place on the least-loaded SM.
		min := 0
		for i := 1; i < len(sms); i++ {
			if sms[i] < sms[min] {
				min = i
			}
		}
		sms[min] += cycles

		r.WarpCycles += a.warpCycles
		r.MemStallCycles += stall
		r.GlobalTransactions += a.globalTransactions
		r.GlobalBytes += a.globalBytes
		r.SharedAccesses += a.sharedAccesses
		r.SharedReplayCycles += a.sharedReplay
	}
	var kernelCycles, totalCycles int64
	for _, c := range sms {
		totalCycles += c
		if c > kernelCycles {
			kernelCycles = c
		}
	}
	kernelTime := d.CyclesToTime(kernelCycles)
	saturated := d.CyclesToTime((totalCycles + int64(d.SMs) - 1) / int64(d.SMs))
	// The kernel can never beat the device memory bandwidth.
	if bwTime := time.Duration(float64(r.GlobalBytes) / d.GlobalBandwidth * float64(time.Second)); bwTime > kernelTime {
		kernelTime = bwTime
	}
	if bwTime := time.Duration(float64(r.GlobalBytes) / d.GlobalBandwidth * float64(time.Second)); bwTime > saturated {
		saturated = bwTime
	}
	r.KernelTime = kernelTime
	r.SaturatedKernelTime = saturated
	return r
}
