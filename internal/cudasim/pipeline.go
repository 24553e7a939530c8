package cudasim

import "time"

// Pipeline scheduling for the Fermi concurrent-copy-and-execute feature
// the paper's §VII proposes exploiting ("The concurrent execution and
// streaming feature of new Fermi GPUs can be used to process those
// chunks"). A stream slice i is processed in three stages — H2D copy,
// kernel, D2H copy — and a Fermi-class device can run one copy and one
// kernel concurrently (one copy engine), so stage k of slice i overlaps
// stage k-1 of slice i+1.

// PipelineStage describes one slice's three stage durations.
type PipelineStage struct {
	H2D, Kernel, D2H time.Duration
}

// PipelineSchedule returns the makespan of executing the slices through
// the three-stage pipeline with one copy engine (H2D and D2H share it, as
// on GF100) and one compute engine. The copy engine services uploads
// eagerly — H2D(i+1) runs while kernel(i) computes — and drains the
// downloads as kernels finish (the order a stream queue produces when
// uploads are enqueued ahead of the returning downloads).
func PipelineSchedule(slices []PipelineStage) time.Duration {
	var h2dFree, kernelFree time.Duration
	kEnd := make([]time.Duration, len(slices))
	for i, s := range slices {
		h2dFree += s.H2D
		kStart := maxDur(kernelFree, h2dFree)
		kEnd[i] = kStart + s.Kernel
		kernelFree = kEnd[i]
	}
	// Downloads share the copy engine; it is free for them once the
	// uploads are issued, and each must wait for its kernel.
	copyFree := h2dFree
	var done time.Duration
	for i, s := range slices {
		dStart := maxDur(copyFree, kEnd[i])
		copyFree = dStart + s.D2H
		done = copyFree
	}
	if len(slices) == 0 {
		return 0
	}
	return done
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
