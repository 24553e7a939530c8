package cudasim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestFermiPresetValid(t *testing.T) {
	d := FermiGTX480()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.SMs*d.CoresPerSM != 480 {
		t.Fatalf("GTX480 core count = %d, want 480", d.SMs*d.CoresPerSM)
	}
}

func TestValidateRejectsBadDevices(t *testing.T) {
	bad := []func(*Device){
		func(d *Device) { d.SMs = 0 },
		func(d *Device) { d.ClockHz = 0 },
		func(d *Device) { d.SharedBanks = 0 },
		func(d *Device) { d.GlobalBandwidth = 0 },
		func(d *Device) { d.MaxThreadsPerBlock = 8 },
	}
	for i, mutate := range bad {
		d := FermiGTX480()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad device", i)
		}
	}
}

func TestOccupancy(t *testing.T) {
	d := FermiGTX480()
	// 128 threads = 4 warps; warp limit allows 12 blocks, block limit 8.
	blocks, occ := d.Occupancy(128, 0)
	if blocks != 8 {
		t.Fatalf("blocksPerSM = %d, want 8", blocks)
	}
	if want := float64(8*4) / 48; occ != want {
		t.Fatalf("occupancy = %v, want %v", occ, want)
	}
	// Shared memory becomes the limit: 20 KiB blocks -> 2 resident.
	blocks, _ = d.Occupancy(128, 20<<10)
	if blocks != 2 {
		t.Fatalf("blocksPerSM = %d, want 2 (shared limited)", blocks)
	}
	// 1024-thread blocks: warp limit 48/32 = 1.
	blocks, _ = d.Occupancy(1024, 0)
	if blocks != 1 {
		t.Fatalf("blocksPerSM = %d, want 1", blocks)
	}
	// Impossible shape.
	blocks, occ = d.Occupancy(128, 49<<10)
	if blocks != 0 || occ != 0 {
		t.Fatalf("impossible shape got %d blocks, occ %v", blocks, occ)
	}
}

func TestBankConflictDegree(t *testing.T) {
	d := FermiGTX480()
	cases := []struct {
		stride int
		want   int
	}{
		{1, 1},    // byte-sequential lanes share words -> broadcast
		{4, 1},    // word-sequential: each lane its own bank
		{8, 2},    // two lanes per bank, different words
		{128, 32}, // all lanes in bank 0, distinct words: full serialisation
		{0, 1},    // everyone reads the same word: broadcast
		{64, 16},
	}
	for _, c := range cases {
		if got := d.BankConflictDegree(c.stride); got != c.want {
			t.Errorf("BankConflictDegree(%d) = %d, want %d", c.stride, got, c.want)
		}
	}
}

func TestCoalescedTransactions(t *testing.T) {
	cases := []struct {
		base, stride, elem, lanes int
		want                      int64
	}{
		{0, 1, 1, 32, 1},    // the paper's unit pattern: 32 bytes in one segment
		{0, 4, 4, 32, 1},    // 128 aligned bytes: exactly one transaction
		{64, 4, 4, 32, 2},   // misaligned by half a segment: two transactions
		{0, 128, 1, 32, 32}, // each lane its own segment: fully scattered
		{0, 0, 4, 32, 1},    // broadcast
		{0, 4096, 1, 32, 32},
		{0, 1, 1, 0, 0},
	}
	for _, c := range cases {
		if got := CoalescedTransactions(c.base, c.stride, c.elem, c.lanes); got != c.want {
			t.Errorf("CoalescedTransactions(%d,%d,%d,%d) = %d, want %d",
				c.base, c.stride, c.elem, c.lanes, got, c.want)
		}
	}
}

func TestCoalescedTransactionsMultiWarp(t *testing.T) {
	// 128 lanes unit stride = 4 warps x 1 transaction.
	if got := CoalescedTransactions(0, 1, 1, 128); got != 4 {
		t.Fatalf("got %d, want 4", got)
	}
}

// segmentSetTransactions is the reference coalescing count: the distinct
// segments of each warp's lanes, collected in a set.
func segmentSetTransactions(base, stride, elemBytes, lanes int) int64 {
	var total int64
	for w := 0; w < lanes; w += WarpSize {
		segs := map[int]bool{}
		for lane := w; lane < min(lanes, w+WarpSize); lane++ {
			lo := base + lane*stride
			for s := lo / TransactionBytes; s <= (lo+elemBytes-1)/TransactionBytes; s++ {
				segs[s] = true
			}
		}
		total += int64(len(segs))
	}
	return total
}

func TestCoalescedTransactionsMatchesSegmentSet(t *testing.T) {
	for _, base := range []int{0, 1, 127, 130, 4099} {
		for _, stride := range []int{0, 1, 3, 128, 4096, -1, -3, -128, -4096} {
			for _, elem := range []int{1, 2, 3, 4, 64, 129, 300} {
				for lanes := 0; lanes <= 96; lanes++ {
					got := CoalescedTransactions(base, stride, elem, lanes)
					if want := segmentSetTransactions(base, stride, elem, lanes); got != want {
						t.Fatalf("CoalescedTransactions(%d,%d,%d,%d) = %d, want %d",
							base, stride, elem, lanes, got, want)
					}
				}
			}
		}
	}
}

func TestParallelReusesLaneContext(t *testing.T) {
	b := &BlockCtx{NumThreads: 128, cfg: &LaunchConfig{ThreadsPerBlock: 128}}
	work := func(th *ThreadCtx) { th.Work(int64(th.Tid)) }
	if allocs := testing.AllocsPerRun(20, func() { b.Parallel(work) }); allocs != 0 {
		t.Fatalf("a 128-lane phase allocated %v times, want 0", allocs)
	}
}

func TestTransferTime(t *testing.T) {
	d := FermiGTX480()
	if d.TransferTime(0) != 0 {
		t.Fatal("zero-byte transfer should be free")
	}
	one := d.TransferTime(6_000_000) // 1ms of bandwidth + latency
	if one < time.Millisecond || one > 2*time.Millisecond {
		t.Fatalf("TransferTime(6MB) = %v", one)
	}
}

func TestLaunchPhasedFunctional(t *testing.T) {
	d := FermiGTX480()
	in := make([]byte, 4096)
	for i := range in {
		in[i] = byte(i * 7)
	}
	gIn := NewGlobal("in", in)
	gOut := NewGlobal("out", make([]byte, len(in)))

	// Kernel: each block stages 256 bytes into shared, each thread adds 1,
	// writes back coalesced.
	rep, err := d.LaunchPhased(LaunchConfig{
		Kernel: "add1", Blocks: 16, ThreadsPerBlock: 128, SharedPerBlock: 256,
	}, func(b *BlockCtx) {
		buf := b.Shared(256)
		b.GlobalReadCoalesced(buf, gIn, b.Index*256)
		b.Parallel(func(th *ThreadCtx) {
			for i := th.Tid; i < 256; i += b.NumThreads {
				buf[i]++
				th.Work(2)
				th.SharedAccess(2, 1)
			}
		})
		b.GlobalWriteCoalesced(gOut, b.Index*256, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range gOut.Bytes() {
		if v != in[i]+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, in[i]+1)
		}
	}
	if rep.GlobalBytes != 2*4096 {
		t.Fatalf("GlobalBytes = %d, want %d", rep.GlobalBytes, 2*4096)
	}
	// 256 aligned bytes = 2 transactions per direction per block.
	if rep.GlobalTransactions != int64(16*4) {
		t.Fatalf("GlobalTransactions = %d, want 64", rep.GlobalTransactions)
	}
	if rep.SharedAccesses != int64(16*256*2) {
		t.Fatalf("SharedAccesses = %d", rep.SharedAccesses)
	}
	if rep.KernelTime <= 0 {
		t.Fatal("KernelTime not positive")
	}
	if rep.Occupancy <= 0 || rep.Occupancy > 1 {
		t.Fatalf("Occupancy = %v", rep.Occupancy)
	}
}

func TestLaunchPhasedSerializationModel(t *testing.T) {
	d := FermiGTX480()
	run := func(serialization float64) *LaunchReport {
		rep, err := d.LaunchPhased(LaunchConfig{
			Kernel: "diverge", Blocks: 1, ThreadsPerBlock: 32,
			Serialization: serialization,
		}, func(b *BlockCtx) {
			b.Parallel(func(th *ThreadCtx) { th.Work(100) })
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if got := run(0).WarpCycles; got != 100 {
		t.Fatalf("lockstep warp cycles = %d, want 100", got)
	}
	if got := run(1).WarpCycles; got != 3200 {
		t.Fatalf("serialised warp cycles = %d, want 3200", got)
	}
	if got := run(0.5).WarpCycles; got != 100+(3200-100)/2 {
		t.Fatalf("half-serialised warp cycles = %d", got)
	}
}

func TestLaunchPhasedSharedOverflow(t *testing.T) {
	d := FermiGTX480()
	_, err := d.LaunchPhased(LaunchConfig{
		Kernel: "overflow", Blocks: 1, ThreadsPerBlock: 32, SharedPerBlock: 128,
	}, func(b *BlockCtx) {
		b.Shared(64)
		b.Shared(65) // 129 > 128
	})
	if err == nil || !strings.Contains(err.Error(), "shared memory overflow") {
		t.Fatalf("err = %v, want shared overflow", err)
	}
}

func TestLaunchPhasedOutOfBoundsFaults(t *testing.T) {
	d := FermiGTX480()
	g := NewGlobal("g", make([]byte, 64))
	_, err := d.LaunchPhased(LaunchConfig{
		Kernel: "oob", Blocks: 1, ThreadsPerBlock: 32, SharedPerBlock: 256,
	}, func(b *BlockCtx) {
		buf := b.Shared(128)
		b.GlobalReadCoalesced(buf, g, 0) // 128 > 64
	})
	if err == nil {
		t.Fatal("out-of-bounds read not faulted")
	}
}

func TestLaunchPhasedConfigValidation(t *testing.T) {
	d := FermiGTX480()
	noop := func(b *BlockCtx) {}
	cases := []LaunchConfig{
		{Blocks: 1, ThreadsPerBlock: 0},
		{Blocks: 1, ThreadsPerBlock: 2048},
		{Blocks: 1, ThreadsPerBlock: 32, SharedPerBlock: 1 << 20},
		{Blocks: 1, ThreadsPerBlock: 32, Serialization: 1.5},
		{Blocks: -1, ThreadsPerBlock: 32},
	}
	for i, cfg := range cases {
		if _, err := d.LaunchPhased(cfg, noop); err == nil {
			t.Errorf("case %d: launch accepted bad config %+v", i, cfg)
		}
	}
}

func TestKernelTimeRespectsBandwidthFloor(t *testing.T) {
	d := FermiGTX480()
	// A kernel that moves lots of bytes with almost no compute must be
	// bandwidth-bound: KernelTime >= bytes/bandwidth.
	n := 1 << 20
	g := NewGlobal("big", make([]byte, n))
	rep, err := d.LaunchPhased(LaunchConfig{
		Kernel: "membound", Blocks: 64, ThreadsPerBlock: 128, SharedPerBlock: n / 64,
	}, func(b *BlockCtx) {
		buf := b.Shared(n / 64)
		b.GlobalReadCoalesced(buf, g, b.Index*n/64)
	})
	if err != nil {
		t.Fatal(err)
	}
	floor := time.Duration(float64(n) / d.GlobalBandwidth * float64(time.Second))
	if rep.KernelTime < floor {
		t.Fatalf("KernelTime %v under bandwidth floor %v", rep.KernelTime, floor)
	}
}

// GlobalWriteCoalesced copies src into g at byte offset off with the same
// unit-stride coalescing model as GlobalReadCoalesced.
func (b *BlockCtx) GlobalWriteCoalesced(g *Global, off int, src []byte) {
	n := len(src)
	if off < 0 || off+n > len(g.data) {
		b.Fault(fmt.Errorf("global write [%d,%d) out of %q bounds %d", off, off+n, g.name, len(g.data)))
	}
	copy(g.data[off:off+n], src)
	b.recordGlobal(off, 1, 1, n)
}
