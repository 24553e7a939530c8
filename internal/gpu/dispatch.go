package gpu

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"culzss/internal/health"
	"culzss/internal/lzss"
)

// This file is the retry/degrade ladder for accelerated work, and the
// supervised dispatch layer it walks when a health.Supervisor is armed:
// the bridge between the work-producing entry points (core.Compress and
// core.Writer's segments through CompressSupervised; CompressV1MultiGPU,
// CompressV1Hybrid and CompressV1Streamed per shard through dispatch)
// and the supervisor's device pool. One piece of work (a shard, a slice,
// a segment) flows through dispatch, parameterized by the Engine that
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

// RetryPolicy bounds how hard the ladder fights for one piece of work on
// an unsupervised device. Host-engine failures are deterministic and
// never reach it; device-path failures (launch, transfer and chunk
// faults — all of which the fault-injection layer can produce) are
// retried with exponential backoff plus jitter, and work that still
// fails after MaxAttempts degrades to the engine's host twin
// (Engine.CompressCPU), which emits a bit-identical container, so one
// flaky device never kills a stream. Under a supervisor the pool walk
// takes the place of the attempts.
type RetryPolicy struct {
	// MaxAttempts is the number of device attempts (including the
	// first); 0 means 3.
	MaxAttempts int
	// BaseBackoff is the nominal delay before the first retry; each
	// further retry doubles it. 0 means 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry delay; 0 means 50ms.
	MaxBackoff time.Duration
	// DisableFallback turns the CPU degrade path off: work that exhausts
	// MaxAttempts fails instead.
	DisableFallback bool
}

func (r RetryPolicy) maxAttempts() int {
	if r.MaxAttempts <= 0 {
		return 3
	}
	return r.MaxAttempts
}

// backoff returns the jittered delay before retry number attempt: the
// nominal delay doubles from BaseBackoff up to MaxBackoff, and full
// jitter over [d/2, d] decorrelates retry storms.
func (r RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d, limit := time.Millisecond, 50*time.Millisecond
	if r.BaseBackoff > 0 {
		d = r.BaseBackoff
	}
	if r.MaxBackoff > 0 {
		limit = r.MaxBackoff
	}
	if d <<= uint(attempt - 1); d > limit || d <= 0 {
		d = limit
	}
	return d/2 + time.Duration(rng.Int64N(int64(d/2)+1))
}

// Outcome is one run of the ladder, or of one supervised dispatch.
type Outcome struct {
	// Container is the work's container (byte-identical regardless of
	// which device — or the CPU — produced it).
	Container []byte
	// Report is the device report; nil when the work degraded to the CPU.
	Report *Report
	// Device is the pool slot that produced supervised work; -1 when it
	// degraded to the CPU.
	Device int
	// Degraded records a CPU-fallback encode.
	Degraded bool
	// Attempts counts the supervised pool walk's device attempts
	// (including the successful one).
	Attempts int
	// TimedOut counts attempts the watchdog cut.
	TimedOut int
	// Retries counts unsupervised device attempts beyond the first; the
	// pool walk makes no outer retry, so it stays 0 there.
	Retries int
}

// CompressSupervised is the retry/degrade ladder for one piece of
// accelerated work (a core.Writer segment, a one-shot core.Compress
// call) under any engine:
//
//   - Unsupervised (opts.Health nil): up to pol.MaxAttempts device
//     attempts with jittered exponential backoff between them, then the
//     engine's host twin unless pol.DisableFallback.
//   - Supervised: one walk over the pool — redispatch, then the host
//     twin (see dispatch). home is the preferred pool slot (-1 for
//     round-robin); op names the work in watchdog timeouts and spans,
//     and is read only here.
//
// If opts.Context ends first, the ladder returns the error without
// degrading: whether cancelled work fails or degrades is the caller's
// decision. A failed attempt's search statistics never reach opts.Stats.
func CompressSupervised(e Engine, data []byte, opts Options, pol RetryPolicy, home int, op string) (Outcome, error) {
	if err := opts.ctxErr(); err != nil {
		return Outcome{}, err
	}
	sink := opts.Stats
	if sink != nil {
		opts.Stats = new(lzss.SearchStats)
	}
	var o Outcome
	var err error
	if opts.Health != nil {
		o, err = dispatch(e, opts.Health, data, opts, home, op)
	} else {
		o, err = retryDevice(e, data, opts, pol)
	}
	if err == nil && sink != nil {
		sink.Add(*opts.Stats)
	}
	return o, err
}

// retryDevice is the unsupervised ladder: device attempts with backoff,
// then the host twin. The jitter source is seeded from the injector, so
// even retry timing replays under test, and only once a retry happens.
func retryDevice(e Engine, data []byte, opts Options, pol RetryPolicy) (o Outcome, err error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var rng *rand.Rand
	for a := 1; ; a++ {
		if opts.Stats != nil {
			*opts.Stats = lzss.SearchStats{} // drop a failed attempt's counters
		}
		if o.Container, o.Report, err = e.Compress(data, opts); err == nil || ctx.Err() != nil {
			return o, err
		}
		if a >= pol.maxAttempts() {
			break
		}
		o.Retries++
		if rng == nil {
			rng = rand.New(rand.NewPCG(uint64(opts.Injector.Seed()), 1))
		}
		t := time.NewTimer(pol.backoff(a, rng))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return o, ctx.Err()
		}
	}
	if pol.DisableFallback {
		return o, fmt.Errorf("gpu: device path failed after %d attempts: %w", pol.maxAttempts(), err)
	}
	if opts.Stats != nil {
		*opts.Stats = lzss.SearchStats{}
	}
	cont, cerr := e.CompressCPU(data, opts)
	if cerr != nil {
		return o, fmt.Errorf("gpu: cpu fallback after device failure (%v): %w", err, cerr)
	}
	o.Container, o.Report, o.Degraded = cont, nil, true
	return o, nil
}

// dispatch compresses data with e over sup's device pool. home is the
// preferred pool slot (locality hint; -1 for round-robin); op names the
// work in watchdog timeouts ("shard 3", "segment 12"). See the file
// comment for the dispatch ladder. The returned error is non-nil only
// for caller cancellation or a CPU-fallback failure.
func dispatch(e Engine, sup *health.Supervisor, data []byte, opts Options, home int, op string) (Outcome, error) {
	sp := opts.Obs.Tracer().Start(op, "dispatch")
	res, err := dispatchPool(e, sup, data, opts, home, op)
	observeDispatch(opts.Obs, op, res, err, sp)
	return res, err
}

// dispatchPool is dispatch's pool walk, free of observability concerns.
func dispatchPool(e Engine, sup *health.Supervisor, data []byte, opts Options, home int, op string) (Outcome, error) {
	res := Outcome{Device: -1}
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
