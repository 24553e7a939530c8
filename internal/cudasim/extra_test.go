package cudasim

import (
	"strings"
	"testing"
	"time"
)

// TestPhasedDeterministicAcrossHostWorkers: the functional result and the
// model counters must not depend on how many host goroutines execute the
// simulation.
func TestPhasedDeterministicAcrossHostWorkers(t *testing.T) {
	d := FermiGTX480()
	run := func(workers int) (*LaunchReport, []byte) {
		in := make([]byte, 8192)
		for i := range in {
			in[i] = byte(i * 13)
		}
		gIn := NewGlobal("in", in)
		gOut := NewGlobal("out", make([]byte, len(in)))
		rep, err := d.LaunchPhased(LaunchConfig{
			Kernel: "det", Blocks: 32, ThreadsPerBlock: 64, SharedPerBlock: 256,
			Serialization: 0.5, HostWorkers: workers,
		}, func(b *BlockCtx) {
			buf := b.Shared(256)
			b.GlobalReadCoalesced(buf, gIn, b.Index*256)
			b.Parallel(func(th *ThreadCtx) {
				for i := th.Tid; i < 256; i += b.NumThreads {
					buf[i] ^= byte(th.Tid)
					th.Work(3)
					th.SharedAccess(1, 1)
				}
			})
			b.GlobalWriteCoalesced(gOut, b.Index*256, buf)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, gOut.Bytes()
	}
	rep1, out1 := run(1)
	rep8, out8 := run(8)
	if string(out1) != string(out8) {
		t.Fatal("functional output depends on host workers")
	}
	if rep1.WarpCycles != rep8.WarpCycles ||
		rep1.GlobalTransactions != rep8.GlobalTransactions ||
		rep1.KernelTime != rep8.KernelTime ||
		rep1.SaturatedKernelTime != rep8.SaturatedKernelTime {
		t.Fatalf("model depends on host workers:\n%+v\n%+v", rep1, rep8)
	}
}

func TestSaturatedNeverExceedsWaveTime(t *testing.T) {
	d := FermiGTX480()
	rep, err := d.LaunchPhased(LaunchConfig{
		Kernel: "sat", Blocks: 3, ThreadsPerBlock: 32,
	}, func(b *BlockCtx) {
		b.Parallel(func(th *ThreadCtx) { th.Work(int64(1000 * (b.Index + 1))) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SaturatedKernelTime > rep.KernelTime {
		t.Fatalf("saturated %v > wave %v", rep.SaturatedKernelTime, rep.KernelTime)
	}
}

func TestPipelineLongCopies(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Copy-bound pipeline: kernels are free, makespan is the copy-engine
	// serialisation of all H2D + D2H work.
	slices := []PipelineStage{
		{H2D: ms(5), Kernel: ms(1), D2H: ms(5)},
		{H2D: ms(5), Kernel: ms(1), D2H: ms(5)},
	}
	got := PipelineSchedule(slices)
	if got < ms(20) {
		t.Fatalf("copy-bound pipeline %v under the copy-engine floor 20ms", got)
	}
	if got > ms(22) {
		t.Fatalf("copy-bound pipeline %v too pessimistic", got)
	}
}

func TestLaunchReportDetail(t *testing.T) {
	d := FermiGTX480()
	g := NewGlobal("src", make([]byte, 1<<16))
	rep, err := d.LaunchPhased(LaunchConfig{
		Kernel: "detail", Blocks: 16, ThreadsPerBlock: 128, SharedPerBlock: 4096,
	}, func(b *BlockCtx) {
		buf := b.Shared(4096)
		b.GlobalReadCoalesced(buf, g, b.Index*4096)
		b.Parallel(func(th *ThreadCtx) {
			th.Work(500)
			th.SharedAccess(100, 2)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Detail(d)
	for _, want := range []string{
		"kernel \"detail\"", "occupancy", "warp cycles", "transactions",
		"coalescing", "replay cycles", "wave", "saturated", "bound by",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Detail missing %q:\n%s", want, out)
		}
	}
	// A memory-dominated kernel classifies as bandwidth/latency bound.
	memRep, err := d.LaunchPhased(LaunchConfig{
		Kernel: "membound", Blocks: 16, ThreadsPerBlock: 128, SharedPerBlock: 4096,
	}, func(b *BlockCtx) {
		buf := b.Shared(4096)
		b.GlobalReadCoalesced(buf, g, b.Index*4096)
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := memRep.Detail(d); !strings.Contains(out, "memory") {
		t.Errorf("memory-bound kernel misclassified:\n%s", out)
	}
}
