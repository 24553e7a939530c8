// Package cudasim is a pure-Go simulator of the CUDA execution model, built
// so the CULZSS GPU kernels can run — functionally and with a performance
// model — without NVIDIA hardware.
//
// # What is simulated
//
// The simulator provides the architectural features the paper's results
// depend on:
//
//   - the grid/block/thread hierarchy with 32-wide warps;
//   - barrier synchronisation inside a block (the implicit barrier
//     between bulk-synchronous phases);
//   - shared memory with a per-block size budget and a 32-bank conflict
//     model;
//   - global memory with per-warp coalescing analysis (how many 128-byte
//     transactions a warp-wide access needs);
//   - SIMT divergence: a warp's cost interpolates between the slowest
//     lane (perfect lockstep) and the sum of all lanes (fully serialised
//     divergent execution) according to a per-kernel serialisation factor;
//   - occupancy limits (resident blocks and warps per SM) and a wave-based
//     assignment of blocks to streaming multiprocessors;
//   - host↔device transfer cost over a PCIe bandwidth/latency model.
//
// # Execution engine
//
// LaunchPhased (phased.go) is the bulk-synchronous engine every kernel
// launches through: a kernel is a function over a BlockCtx that alternates
// Parallel(perThread) phases; the barrier between phases is implicit. This
// executes as plain loops (no goroutine per thread), which keeps the
// functional simulation fast, while per-thread cycle and memory-access
// accounting feeds the timing model. Blocks are spread over a host worker
// pool, so kernels also enjoy real host parallelism.
//
// # Fidelity contract
//
// Functional results are exact: kernels compute real bytes. Timing is a
// model, not a measurement: counters come from real execution (comparisons
// performed, bytes moved, transactions needed), and the constants in
// Device translate them into simulated time. The model's purpose is to
// preserve the *shape* of the paper's results — which implementation wins
// on which data and by roughly what factor — from the same causes the
// paper identifies (divergence, coalescing, bank conflicts, redundant
// work). EXPERIMENTS.md reports simulated and host wall-clock side by
// side.
package cudasim

import (
	"context"
	"fmt"
	"math"
	"time"
)

// WarpSize is the number of lanes per warp on every modeled device.
const WarpSize = 32

// TransactionBytes is the global-memory transaction granularity (the
// 128-byte coalescing block of Fermi, paper §III.D).
const TransactionBytes = 128

// Device describes the simulated GPU. All cost constants are per-device so
// alternative GPUs can be modeled; FermiGTX480 reproduces the paper's
// testbed.
type Device struct {
	Name string

	// SMs is the number of streaming multiprocessors.
	SMs int
	// CoresPerSM is the number of CUDA cores (SPs) per SM.
	CoresPerSM int
	// ClockHz is the shader clock in Hz.
	ClockHz float64

	// SharedMemPerSM is the shared-memory capacity of one SM in bytes.
	SharedMemPerSM int
	// MaxSharedPerBlock is the largest shared allocation one block may make.
	MaxSharedPerBlock int
	// MaxThreadsPerBlock bounds block width.
	MaxThreadsPerBlock int
	// MaxWarpsPerSM bounds resident warps per SM (occupancy).
	MaxWarpsPerSM int
	// MaxBlocksPerSM bounds resident blocks per SM (occupancy).
	MaxBlocksPerSM int

	// GlobalBandwidth is device-memory bandwidth in bytes/second.
	GlobalBandwidth float64
	// GlobalLatencyCycles is the unloaded latency of one global-memory
	// transaction in shader cycles.
	GlobalLatencyCycles int64
	// SharedBanks is the number of shared-memory banks.
	SharedBanks int
	// BankWidthBytes is the width of one shared-memory bank word. Accesses
	// by different lanes falling in the same bank but different words
	// serialise; lanes hitting the same word broadcast (Fermi rule).
	BankWidthBytes int

	// PCIeBandwidth is effective host↔device copy bandwidth in bytes/second.
	PCIeBandwidth float64
	// PCIeLatency is the fixed per-copy overhead.
	PCIeLatency time.Duration

	// LegacyBankSemantics switches BankConflictDegree to the pre-Fermi
	// (G80/GT200) rule: 16 banks serviced per half-warp and no same-word
	// multicast — lanes touching different bytes of one bank word
	// serialise. The paper's four-character thread stagger (§III.B.2)
	// exists for exactly this rule; the bank-skew ablation uses it.
	LegacyBankSemantics bool

	// LaunchHook, when non-nil, runs before every kernel launch; a
	// non-nil error aborts the launch without executing any block,
	// modeling a driver or device launch failure. The context is the
	// launch's (LaunchConfig.Context, or context.Background() when nil):
	// a hook that blocks — the fault-injection layer's hang rule,
	// modeling a wedged kernel — must select on it so a watchdog
	// cancelling the launch unwedges the hook promptly. The fault
	// injection suite (internal/faults) plugs in here; production
	// devices leave it nil.
	LaunchHook func(ctx context.Context, kernel string) error
}

// FermiGTX480 models the paper's testbed GPU: a GeForce GTX 480
// (Fermi GF100: 15 SMs x 32 cores = 480 CUDA cores, 1.4 GHz shader clock,
// 177 GB/s GDDR5) on PCIe 2.0 x16.
func FermiGTX480() *Device {
	return &Device{
		Name:                "GeForce GTX 480 (simulated)",
		SMs:                 15,
		CoresPerSM:          32,
		ClockHz:             1.4e9,
		SharedMemPerSM:      48 << 10,
		MaxSharedPerBlock:   48 << 10,
		MaxThreadsPerBlock:  1024,
		MaxWarpsPerSM:       48,
		MaxBlocksPerSM:      8,
		GlobalBandwidth:     177e9,
		GlobalLatencyCycles: 400,
		SharedBanks:         32,
		BankWidthBytes:      4,
		PCIeBandwidth:       6e9,
		PCIeLatency:         10 * time.Microsecond,
	}
}

// Validate reports whether the device description is usable.
func (d *Device) Validate() error {
	switch {
	case d.SMs < 1:
		return fmt.Errorf("cudasim: device needs >= 1 SM, have %d", d.SMs)
	case d.ClockHz <= 0:
		return fmt.Errorf("cudasim: non-positive clock")
	case d.SharedBanks < 1 || d.BankWidthBytes < 1:
		return fmt.Errorf("cudasim: bad shared-memory geometry")
	case d.GlobalBandwidth <= 0 || d.PCIeBandwidth <= 0:
		return fmt.Errorf("cudasim: non-positive bandwidth")
	case d.MaxThreadsPerBlock < WarpSize:
		return fmt.Errorf("cudasim: MaxThreadsPerBlock %d < warp size", d.MaxThreadsPerBlock)
	}
	return nil
}

// Occupancy computes how many blocks of the given shape can be resident on
// one SM and the resulting warp occupancy fraction.
func (d *Device) Occupancy(threadsPerBlock, sharedPerBlock int) (blocksPerSM int, occupancy float64) {
	warpsPerBlock := (threadsPerBlock + WarpSize - 1) / WarpSize
	if warpsPerBlock == 0 {
		warpsPerBlock = 1
	}
	blocksPerSM = d.MaxBlocksPerSM
	if byWarps := d.MaxWarpsPerSM / warpsPerBlock; byWarps < blocksPerSM {
		blocksPerSM = byWarps
	}
	if sharedPerBlock > 0 {
		if byShared := d.SharedMemPerSM / sharedPerBlock; byShared < blocksPerSM {
			blocksPerSM = byShared
		}
	}
	if blocksPerSM < 1 {
		blocksPerSM = 0
		return 0, 0
	}
	occupancy = float64(blocksPerSM*warpsPerBlock) / float64(d.MaxWarpsPerSM)
	if occupancy > 1 {
		occupancy = 1
	}
	return blocksPerSM, occupancy
}

// CyclesToTime converts shader cycles to simulated time.
func (d *Device) CyclesToTime(cycles int64) time.Duration {
	return time.Duration(float64(cycles) / d.ClockHz * float64(time.Second))
}

// TransferTime models one host↔device copy of n bytes.
func (d *Device) TransferTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return d.PCIeLatency + time.Duration(float64(n)/d.PCIeBandwidth*float64(time.Second))
}

// BankConflictDegree returns the serialisation factor of a warp-wide
// shared-memory access in which lane i touches byte address base+i*stride:
// the maximum, over banks, of the number of *distinct bank words* the warp
// addresses in that bank. 1 means conflict-free (including the broadcast
// case where lanes share a word); k means the access replays k times.
//
// The paper's V2 kernel staggers threads by four characters (§III.B.2)
// precisely to keep this degree at 1.
func (d *Device) BankConflictDegree(stride int) int {
	if stride < 0 {
		stride = -stride
	}
	banks, group := d.SharedBanks, WarpSize
	if d.LegacyBankSemantics {
		banks, group = 16, 16 // half-warp service on pre-Fermi parts
	}
	type bw struct{ bank, word int }
	seen := make(map[bw]bool, WarpSize)
	perBank := make(map[int]int, banks)
	max := 1
	for lane := 0; lane < group; lane++ {
		addr := lane * stride
		word := addr / d.BankWidthBytes
		bank := word % banks
		if d.LegacyBankSemantics {
			// No multicast: distinct addresses in one word still replay.
			word = addr
		}
		key := bw{bank, word}
		if seen[key] {
			continue // identical address (Fermi: same word): broadcast
		}
		seen[key] = true
		perBank[bank]++
		if perBank[bank] > max {
			max = perBank[bank]
		}
	}
	return max
}

// CoalescedTransactions returns how many global-memory transactions a
// warp needs when lane i accesses elemBytes bytes at byte address
// base+i*stride. Addresses are grouped into TransactionBytes-aligned
// segments; each distinct segment costs one transaction (the Fermi rule,
// paper §III.D: "anytime an access is needed to an address from a block,
// the entire block must be transferred"). More than WarpSize lanes are
// counted warp by warp.
func CoalescedTransactions(base, stride, elemBytes, lanes int) int64 {
	if lanes <= 0 || elemBytes <= 0 {
		return 0
	}
	var total int64
	for w := 0; w < lanes; w += WarpSize {
		total += warpSegments(base+w*stride, stride, elemBytes, min(lanes-w, WarpSize))
	}
	return total
}

// warpSegments counts the distinct segments one warp's lanes touch. Each
// lane covers the segment range [lo/TransactionBytes, hi/TransactionBytes]
// and both ends move monotonically with the lane index, so walking the
// lanes in ascending address order and counting only the segments past
// the highest one already counted visits each segment once.
func warpSegments(base, stride, elemBytes, lanes int) int64 {
	if stride < 0 {
		base, stride = base+(lanes-1)*stride, -stride
	}
	var n int64
	counted := math.MinInt // highest segment counted so far
	for lane := 0; lane < lanes; lane++ {
		lo := base + lane*stride
		first, last := lo/TransactionBytes, (lo+elemBytes-1)/TransactionBytes
		if first <= counted {
			first = counted + 1
		}
		if last >= first {
			n += int64(last - first + 1)
			counted = last
		}
	}
	return n
}
