package gpu

import (
	"context"
	"fmt"

	"culzss/internal/health"
)

// This file is the supervised dispatch layer: the bridge between the
// shard-producing entry points (CompressV1MultiGPU, CompressV1Hybrid,
// CompressV1Streamed, core.Compress and core.Writer's segment loop) and the
// health.Supervisor's device pool. One piece of work (a shard, a slice, a
// segment) flows through dispatch, parameterized by the Engine that
// does the encoding:
//
//	Acquire a healthy device (preferring the work's home slot for
//	locality) -> Run the engine's kernel under the watchdog -> on failure
//	mark the device's breaker, exclude it, and redispatch to a sibling ->
//	when every device is quarantined or excluded, degrade to the engine's
//	byte-identical CPU twin.
//
// The caller always gets either a valid container or an error that means
// "the caller cancelled" or "even the CPU could not encode this" — a sick
// device never surfaces as a shard failure.

// Engine is the minimal compress-engine shape the supervised ladder
// dispatches over: a device-path entry point and its byte-identical
// host twin for the degrade tail. internal/codec's richer Engine
// interface satisfies it structurally, so any registered codec can ride
// the same ladder.
type Engine interface {
	Compress(data []byte, opts Options) ([]byte, *Report, error)
	CompressCPU(data []byte, opts Options) ([]byte, error)
}

// engineV1 adapts the Version 1 entry points to the Engine shape for the
// V1-specific schedulers (multi-GPU, hybrid, streamed).
type engineV1 struct{}

func (engineV1) Compress(data []byte, opts Options) ([]byte, *Report, error) {
	return CompressV1(data, opts)
}

func (engineV1) CompressCPU(data []byte, opts Options) ([]byte, error) {
	return CompressV1CPU(data, opts)
}

// dispatchResult is one supervised dispatch outcome.
type dispatchResult struct {
	// Container is the shard's container (byte-identical regardless of
	// which device — or the CPU — produced it).
	Container []byte
	// Report is the device report; nil when the shard degraded to the CPU.
	Report *Report
	// Device is the pool slot that produced the shard; -1 for the CPU.
	Device int
	// Degraded records a CPU-fallback encode.
	Degraded bool
	// Attempts counts GPU attempts made (including the successful one).
	Attempts int
	// TimedOut counts attempts the watchdog cut.
	TimedOut int
}

// CompressSupervised is the exported face of the supervised dispatch
// ladder for a single piece of work (a core.Writer segment, a one-shot
// API call) under any engine. Without a supervisor it is the engine's
// plain device path; with one, the work rides the pool with redispatch
// and CPU degrade. home is the preferred pool slot (-1 for round-robin);
// op names the work in watchdog timeouts. degraded reports a
// CPU-fallback encode (rep is then nil; the container bytes are
// identical either way).
func CompressSupervised(e Engine, data []byte, opts Options, home int, op string) (container []byte, rep *Report, degraded bool, err error) {
	if opts.Health == nil {
		container, rep, err = e.Compress(data, opts)
		return container, rep, false, err
	}
	res, err := dispatch(e, opts.Health, data, opts, home, op)
	return res.Container, res.Report, res.Degraded, err
}

// dispatch compresses data with e over sup's device pool. home is the
// preferred pool slot (locality hint; -1 for round-robin); op names the
// work in watchdog timeouts ("shard 3", "segment 12"). See the file
// comment for the dispatch ladder. The returned error is non-nil only
// for caller cancellation or a CPU-fallback failure.
func dispatch(e Engine, sup *health.Supervisor, data []byte, opts Options, home int, op string) (dispatchResult, error) {
	sp := opts.Obs.Tracer().Start(op, "dispatch")
	res, err := dispatchPool(e, sup, data, opts, home, op)
	observeDispatch(opts.Obs, op, res, err, sp)
	return res, err
}

// dispatchPool is dispatch's pool walk, free of observability concerns.
func dispatchPool(e Engine, sup *health.Supervisor, data []byte, opts Options, home int, op string) (dispatchResult, error) {
	res := dispatchResult{Device: -1}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	exclude := make(map[int]bool, sup.Devices())
	var lastErr error
	for len(exclude) < sup.Devices() {
		id, ok := sup.Acquire(home, exclude)
		if !ok {
			break // whole pool quarantined (or excluded): degrade
		}
		res.Attempts++

		// Fresh result storage per attempt: a watchdog-abandoned attempt
		// may still be writing these after Run returns, so the next
		// attempt (and the caller) must never share them.
		var (
			acont []byte
			arep  *Report
		)
		attempt := opts
		if dev := sup.Device(id); dev != nil {
			attempt.Device = dev
		}
		ksp := opts.Obs.Tracer().Start(op, "kernel").SetDevice(id)
		runErr := sup.Run(ctx, id, op, func(runCtx context.Context) error {
			attempt.Context = runCtx
			c, r, err := e.Compress(data, attempt)
			if err != nil {
				return err
			}
			acont, arep = c, r
			return nil
		})
		ksp.End(runErr)
		if isTimeout(runErr) {
			res.TimedOut++
		}
		if runErr == nil {
			res.Container, res.Report, res.Device = acont, arep, id
			return res, nil
		}
		if ctx.Err() != nil {
			// The caller gave up; do not burn the rest of the pool.
			return res, runErr
		}
		lastErr = runErr
		exclude[id] = true
		sup.NoteRedispatch()
	}

	// Degrade: the engine's byte-identical host twin. It sees the
	// caller's context (not a watchdog deadline — the host path has no
	// hung-kernel mode to guard against).
	cpu := opts
	cpu.Context = ctx
	cont, err := e.CompressCPU(data, cpu)
	if err != nil {
		if lastErr != nil {
			return res, fmt.Errorf("gpu: %s: pool exhausted (last device error: %v); cpu fallback: %w", op, lastErr, err)
		}
		return res, fmt.Errorf("gpu: %s: cpu fallback: %w", op, err)
	}
	res.Container, res.Degraded = cont, true
	return res, nil
}
