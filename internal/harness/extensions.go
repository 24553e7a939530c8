package harness

import (
	"fmt"
	"time"

	"culzss/internal/codec"
	"culzss/internal/cudasim"
	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/gpu"
	"culzss/internal/lzss"
	"culzss/internal/stats"
)

// The §VII future-work experiments: each is implemented in internal/gpu
// and evaluated here as an extension table.

// ExtensionStreams evaluates the Fermi copy/execute pipelining (§VII:
// "The concurrent execution and streaming feature of new Fermi GPUs can
// be used to process those chunks").
func ExtensionStreams(cfg Config) (*Table, error) {
	cfg.fill()
	data := datasets.CFiles(cfg.Size, cfg.Seed)
	t := &Table{
		Title:   "Extension — V1 with Fermi copy/execute streams (C files)",
		Columns: []string{"streams", "simulated total", "vs 1 stream"},
		Notes:   []string{"§VII: overlapping H2D/kernel/D2H across stream slices."},
	}
	var base time.Duration
	for _, streams := range []int{1, 2, 4, 8} {
		_, rep, err := gpu.CompressV1Streamed(data, gpu.Options{}, streams)
		if err != nil {
			return nil, err
		}
		total := rep.SimulatedTotal()
		if streams == 1 {
			base = total
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", streams),
			total.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(total)/float64(base)),
		})
	}
	return t, nil
}

// ExtensionMultiGPU evaluates the multi-device split (§VII: the paper's
// own attempt saw no gains and suspected thread overhead; the model shows
// where the crossover sits).
func ExtensionMultiGPU(cfg Config) (*Table, error) {
	cfg.fill()
	t := &Table{
		Title:   "Extension — V1 across multiple simulated GPUs",
		Columns: []string{"dataset", "GPUs", "simulated total", "kernel span", "bus", "dispatch"},
		Notes: []string{
			"§VII: the paper's multi-GPU attempt showed no gains (suspected thread",
			"overhead); the model reproduces the loss when kernels are cheap and the",
			"shared PCIe bus plus per-device dispatch dominate.",
		},
	}
	for _, key := range []string{"cfiles", "highcomp"} {
		ds, _ := datasets.ByKey(key)
		data := ds.Gen(cfg.Size, cfg.Seed)
		for _, n := range []int{1, 2, 4} {
			_, rep, err := gpu.CompressV1MultiGPU(data, gpu.Options{}, n)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				ds.Name,
				fmt.Sprintf("%d", n),
				rep.SimulatedTotal().Round(time.Microsecond).String(),
				rep.KernelSpan.Round(time.Microsecond).String(),
				rep.BusTime.Round(time.Microsecond).String(),
				rep.DriverOverhead.String(),
			})
		}
	}
	return t, nil
}

// ExtensionHybrid evaluates the heterogeneous CPU+GPU split (§VII: "a
// combined CPU and GPU heterogeneous implementation can give benefits").
func ExtensionHybrid(cfg Config) (*Table, error) {
	cfg.fill()
	data := datasets.CFiles(cfg.Size, cfg.Seed)
	t := &Table{
		Title:   "Extension — heterogeneous CPU+GPU V1 (C files)",
		Columns: []string{"cpu share", "overlapped total", "cpu time", "gpu simulated"},
		Notes:   []string{"§VII: chunks split between host workers and the GPU, processed concurrently."},
	}
	for _, frac := range []float64{0, 0.25, 0.5, -1} {
		_, rep, err := gpu.CompressV1Hybrid(data, gpu.Options{}, frac)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.0f%%", rep.CPUFraction*100)
		if frac < 0 {
			label = fmt.Sprintf("auto (%.0f%%)", rep.CPUFraction*100)
		}
		gpuTotal := time.Duration(0)
		if rep.GPU != nil {
			gpuTotal = rep.GPU.SimulatedTotal()
		}
		t.Rows = append(t.Rows, []string{
			label,
			rep.SimulatedTotal().Round(time.Microsecond).String(),
			rep.CPUTime.Round(time.Microsecond).String(),
			gpuTotal.Round(time.Microsecond).String(),
		})
	}
	return t, nil
}

// ExtensionAutoSelection evaluates the codec.Auto selector against
// always-V1 and always-V2 across the datasets (§V: "This feature gives
// the ability to use the best matching implementation"). An oracle column
// shows what a perfect per-dataset choice would cost.
func ExtensionAutoSelection(cfg Config) (*Table, error) {
	cfg.fill()
	t := &Table{
		Title:   "Extension — automatic version selection (§V)",
		Columns: []string{"dataset", "V1 sat", "V2 sat", "auto picks", "auto sat", "oracle"},
		Notes:   []string{"Saturated simulated totals; 'auto picks' is the sampled choice of codec.SelectCodec (a raw-store pick would show as V2)."},
	}
	for _, ds := range datasets.All() {
		data := ds.Gen(cfg.Size, cfg.Seed)
		_, r1, err := gpu.CompressV1(data, gpu.Options{})
		if err != nil {
			return nil, err
		}
		_, r2, err := gpu.CompressV2(data, gpu.Options{})
		if err != nil {
			return nil, err
		}
		pick, picked := "V2", r2
		if codec.SelectCodec(data) == format.CodecCULZSSV1 {
			pick, picked = "V1", r1
		}
		oracle := r1
		if r2.SaturatedTotal() < r1.SaturatedTotal() {
			oracle = r2
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			r1.SaturatedTotal().Round(time.Microsecond).String(),
			r2.SaturatedTotal().Round(time.Microsecond).String(),
			pick,
			picked.SaturatedTotal().Round(time.Microsecond).String(),
			oracle.SaturatedTotal().Round(time.Microsecond).String(),
		})
	}
	return t, nil
}

// ExtensionGPUPostPass evaluates the §VII port of V2's serial host
// post-pass to a GPU pointer-doubling selection kernel: host time shrinks
// to pure serialisation at the cost of O(n log n) extra (but perfectly
// parallel) kernel work.
func ExtensionGPUPostPass(cfg Config) (*Table, error) {
	cfg.fill()
	t := &Table{
		Title:   "Extension — V2 token selection on GPU vs host (§VII)",
		Columns: []string{"dataset", "host post: total", "host time", "gpu post: total", "host time"},
		Notes: []string{
			"Saturated simulated totals; identical output containers.",
			"The GPU selection adds log(n) pointer-doubling rounds to the kernel",
			"and shrinks the D2H copy to the selected tokens.",
		},
	}
	for _, key := range []string{"cfiles", "highcomp"} {
		ds, _ := datasets.ByKey(key)
		data := ds.Gen(cfg.Size, cfg.Seed)
		_, host, err := gpu.CompressV2(data, gpu.Options{})
		if err != nil {
			return nil, err
		}
		_, gp, err := gpu.CompressV2GPUPost(data, gpu.Options{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			host.SaturatedTotal().Round(time.Microsecond).String(),
			host.HostTime.Round(time.Microsecond).String(),
			gp.SaturatedTotal().Round(time.Microsecond).String(),
			gp.HostTime.Round(time.Microsecond).String(),
		})
	}
	return t, nil
}

// ExtensionDeviceSweep runs both kernels on two simulated GPU generations
// — the paper's GTX 480 and a GT200-era Tesla C1060 — showing how the
// architecture (core count, bank semantics, bandwidth) moves the numbers.
// A sensitivity analysis the paper could not run (one testbed).
func ExtensionDeviceSweep(cfg Config) (*Table, error) {
	cfg.fill()
	data := datasets.CFiles(cfg.Size, cfg.Seed)
	t := &Table{
		Title:   "Extension — device generation sweep (C files)",
		Columns: []string{"device", "V1 sat", "V2 sat", "V2/V1"},
		Notes:   []string{"Same kernels, different simulated parts; saturated totals."},
	}
	devices := []*cudasim.Device{cudasim.FermiGTX480(), cudasim.TeslaC1060()}
	for _, dev := range devices {
		// V1's per-thread buffers do not fit a 16 KiB part at 128
		// threads (the paper's §V limitation) — step the block width
		// down until the launch is resident.
		var r1 *gpu.Report
		tpb1 := 128
		for ; tpb1 >= 32; tpb1 /= 2 {
			var err error
			if _, r1, err = gpu.CompressV1(data, gpu.Options{Device: dev, ThreadsPerBlock: tpb1}); err == nil {
				break
			}
			r1 = nil
		}
		if r1 == nil {
			return nil, fmt.Errorf("harness: V1 fits no block width on %s", dev.Name)
		}
		_, r2, err := gpu.CompressV2(data, gpu.Options{Device: dev, ThreadsPerBlock: 128})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (V1 tpb=%d)", dev.Name, tpb1),
			r1.SaturatedTotal().Round(time.Microsecond).String(),
			r2.SaturatedTotal().Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", float64(r2.SaturatedTotal())/float64(r1.SaturatedTotal())),
		})
	}
	return t, nil
}

// ExtensionOptimalParse compares the paper's greedy parse against the
// minimum-cost (dynamic-programming) parse at the V2 configuration — a
// §VII "improvements on the LZSS algorithm" item. Same decoder, strictly
// never-worse output.
func ExtensionOptimalParse(cfg Config) (*Table, error) {
	cfg.fill()
	t := &Table{
		Title:   "Extension — greedy vs optimal parsing (V2 configuration)",
		Columns: []string{"dataset", "greedy ratio", "optimal ratio", "saved"},
		Notes:   []string{"Minimum-cost tokenisation via backward DP; identical wire format."},
	}
	lz := lzss.CULZSSV2()
	for _, ds := range datasets.All() {
		data := ds.Gen(cfg.Size, cfg.Seed)
		greedy, err := lzss.EncodeByteAligned(data, lz, lzss.SearchHashChain, nil)
		if err != nil {
			return nil, err
		}
		optimal, err := lzss.EncodeByteAlignedOptimal(data, lz, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			stats.RatioPercent(len(greedy), len(data)),
			stats.RatioPercent(len(optimal), len(data)),
			fmt.Sprintf("%.2f%%", (1-float64(len(optimal))/float64(len(greedy)))*100),
		})
	}
	return t, nil
}
