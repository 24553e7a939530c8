// Package faults is the deterministic, seeded fault-injection subsystem
// the robustness suite plugs into the simulated device and the streaming
// pipeline. It models the failure classes a production CULZSS deployment
// sees — transient kernel-launch failures, per-chunk decode faults,
// stalled/failed PCIe transfers, and bit-flips on framed streams crossing
// a network — so the retry, degrade-to-CPU, and salvage paths can be
// exercised end to end without real hardware faults.
//
// # Seed contract
//
// An Injector is fully determined by its seed and the order of probe
// calls: the nth probe of a site always makes the same decision for the
// same seed and rule set. Concurrent probes of one site serialise under
// the injector's mutex, so the *set* of injected faults is deterministic,
// while *which* goroutine observes a given fault depends on scheduling;
// tests that need a specific chunk to fault pin HostWorkers to 1 (serial
// attempt order) or use rules that fault every attempt. CI's pinned-seed
// job sets CULZSS_FAULT_SEED so recovery regressions reproduce exactly.
//
// # Wiring
//
// gpu.Options.Injector and core.Params.Injector carry an *Injector down
// the stack; a nil injector is inert (every method on a nil *Injector is
// a no-op), so production paths pay a single pointer test. The
// cudasim.Device side is a context-aware function hook
// (Device.LaunchHook), kept free of any dependency on this package;
// Injector.LaunchHook adapts.
//
// Beyond the fire rules, every site can be armed with a latency rule
// (Hang/HangFirst — the "SiteHang" rule of the device-health suite): the
// probe blocks for a fixed duration before answering, modeling a hung
// kernel or stalled copy. FaultCtx (and the LaunchHook adapter) cut an
// in-progress hang when the probe's context is cancelled, which is what
// lets internal/health's watchdog turn a wedged launch into a typed
// timeout instead of an indefinite stall.
package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"
)

// PinnedSeed returns the seed CULZSS_FAULT_SEED pins, or def when it is
// unset or not an integer, so a test's fault schedule replays exactly
// under CI's pinned seed.
func PinnedSeed(def int64) int64 {
	if s := os.Getenv("CULZSS_FAULT_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// Site identifies a fault-injection point in the pipeline.
type Site string

// The injection sites the stack consults.
const (
	// SiteLaunch fires on kernel launches (simulated driver/device
	// launch failure). Consulted by cudasim.Device.LaunchHook.
	SiteLaunch Site = "launch"
	// SiteChunk fires per decoded chunk inside gpu.Decompress (a
	// device-side decode fault confined to one chunk).
	SiteChunk Site = "chunk"
	// SiteTransfer fires on modeled host<->device transfers (a stalled
	// or failed PCIe copy, surfaced as an error after the deadline).
	SiteTransfer Site = "transfer"
	// SiteFrame fires per byte inside CorruptWriter (a bit-flip on the
	// framed stream crossing the wire).
	SiteFrame Site = "frame"
)

// Fault is the structured error an Injector returns when a probe faults.
type Fault struct {
	// Site is the injection point that fired.
	Site Site
	// Attempt is the 1-based probe count at the site when the fault fired.
	Attempt int
	// Transient reports whether the fault models a condition a retry can
	// outlast (FailFirst/FailEvery/FailProb) rather than a persistent one
	// (Always).
	Transient bool
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "persistent"
	if f.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("faults: injected %s fault at %s (attempt %d)", kind, f.Site, f.Attempt)
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// IsTransient reports whether err is (or wraps) an injected fault marked
// transient.
func IsTransient(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Transient
}

// rule decides whether one probe of a site faults.
type rule struct {
	failFirst int     // attempts 1..failFirst fault (transient)
	every     int     // every nth attempt faults (transient)
	prob      float64 // per-attempt fault probability (transient)
	always    bool    // every attempt faults (persistent)

	// hang delays the probe before the fire decision is delivered — the
	// latency-injection ("SiteHang") rule that models a wedged kernel or
	// stalled transfer. FaultCtx interrupts the delay when its context is
	// cancelled, which is how a watchdog deadline cuts a hung launch.
	hang time.Duration
	// hangFirst bounds the hang to the first n probes; 0 hangs every probe.
	hangFirst int
}

// decide evaluates the fire rules for one probe: whether it faults and
// whether the fault models a transient condition. Callers hold the
// injector mutex (the probabilistic rule draws from the shared generator).
func (r rule) decide(attempt int, rng *rand.Rand) (fire, transient bool) {
	switch {
	case r.always:
		return true, false
	case r.failFirst > 0:
		return attempt <= r.failFirst, true
	case r.every > 0:
		return attempt%r.every == 0, true
	case r.prob > 0:
		return rng.Float64() < r.prob, true
	}
	return false, false
}

// Counts summarises a site's probe history.
type Counts struct {
	// Attempts is how many times the site was probed.
	Attempts int
	// Injected is how many probes faulted.
	Injected int
}

// Injector makes seeded fault decisions. The zero value and the nil
// pointer are both inert; construct faulting injectors with New plus the
// rule methods. All methods are safe for concurrent use.
type Injector struct {
	mu       sync.Mutex
	seed     int64
	rng      *rand.Rand
	rules    map[Site]rule
	attempts map[Site]int
	injected map[Site]int

	// SiteWrite offset rules (see io.go): the torn-write and byte-budget
	// cut points, and whether a firing SiteWrite probe tears the write in
	// half instead of dropping it whole.
	wTorn, wErrAfter       int64
	wTornSet, wErrAfterSet bool
	wShort                 bool
}

// New returns an injector with no rules (it injects nothing until a rule
// method arms a site). The seed fixes every probabilistic decision.
func New(seed int64) *Injector {
	return &Injector{
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		rules:    make(map[Site]rule),
		attempts: make(map[Site]int),
		injected: make(map[Site]int),
	}
}

// Seed returns the seed the injector was built with (0 for nil).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

func (in *Injector) setRule(site Site, r rule) *Injector {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	// Fire rules replace each other but never clear an armed hang, so
	// Hang composes with any of them in either order.
	old := in.rules[site]
	r.hang, r.hangFirst = old.hang, old.hangFirst
	in.rules[site] = r
	in.mu.Unlock()
	return in
}

// Hang arms site's latency-injection rule: every probe of the site blocks
// for d before its fire decision is delivered, modeling a hung kernel
// launch or a stalled transfer. The delay is interruptible only through
// FaultCtx (probes through plain Fault sleep the full d); a watchdog that
// cancels the probe's context turns the hang into a prompt context error.
// Hang composes with the fire rules: Hang+Always is a device that is both
// slow and broken.
func (in *Injector) Hang(site Site, d time.Duration) *Injector {
	return in.setHang(site, d, 0)
}

// HangFirst arms site to hang only on its first n probes (a device that
// wedges, is power-cycled, and comes back responsive).
func (in *Injector) HangFirst(site Site, n int, d time.Duration) *Injector {
	return in.setHang(site, d, n)
}

func (in *Injector) setHang(site Site, d time.Duration, first int) *Injector {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	r := in.rules[site]
	r.hang, r.hangFirst = d, first
	in.rules[site] = r
	in.mu.Unlock()
	return in
}

// FailFirst arms site to fault on its first n probes (transient: retries
// past attempt n succeed).
func (in *Injector) FailFirst(site Site, n int) *Injector {
	return in.setRule(site, rule{failFirst: n})
}

// FailEvery arms site to fault on every nth probe (transient).
func (in *Injector) FailEvery(site Site, n int) *Injector {
	return in.setRule(site, rule{every: n})
}

// FailProb arms site to fault each probe independently with probability p,
// drawn from the seeded generator (transient).
func (in *Injector) FailProb(site Site, p float64) *Injector {
	return in.setRule(site, rule{prob: p})
}

// Always arms site to fault on every probe (persistent: no retry can
// succeed, only a degrade path survives it).
func (in *Injector) Always(site Site) *Injector {
	return in.setRule(site, rule{always: true})
}

// Fault probes site once and returns the injected *Fault, or nil when the
// probe passes (or the injector is nil / the site unarmed). An armed hang
// sleeps its full duration — use FaultCtx where a watchdog must be able
// to cut the delay.
func (in *Injector) Fault(site Site) error {
	return in.FaultCtx(context.Background(), site)
}

// FaultCtx is Fault with an interruptible hang: if the site's Hang rule
// fires, the probe blocks for the armed duration or until ctx is done,
// whichever comes first. A cancelled hang returns ctx's error (wrapped),
// so callers observe context.DeadlineExceeded / context.Canceled through
// errors.Is — the shape a watchdog-cut hung kernel surfaces as.
func (in *Injector) FaultCtx(ctx context.Context, site Site) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.attempts[site]++
	attempt := in.attempts[site]
	r, ok := in.rules[site]
	if !ok {
		in.mu.Unlock()
		return nil
	}
	fire, transient := r.decide(attempt, in.rng)
	if fire {
		in.injected[site]++
	}
	hang := r.hang
	if hang > 0 && r.hangFirst > 0 && attempt > r.hangFirst {
		hang = 0
	}
	in.mu.Unlock() // never sleep under the injector mutex

	if hang > 0 {
		t := time.NewTimer(hang)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("faults: hang at %s cut (attempt %d): %w", site, attempt, ctx.Err())
		}
	}
	if !fire {
		return nil
	}
	return &Fault{Site: site, Attempt: attempt, Transient: transient}
}

// Counts reports site's probe history so far.
func (in *Injector) Counts(site Site) Counts {
	if in == nil {
		return Counts{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return Counts{Attempts: in.attempts[site], Injected: in.injected[site]}
}

// LaunchHook adapts the injector's SiteLaunch rule to the context-aware
// function hook cudasim.Device carries (the device stays free of this
// package). A nil injector returns a nil hook. The context is the
// launch's: a watchdog that cancels it cuts an armed hang mid-sleep, so a
// hung kernel surfaces as a prompt context error instead of a wedge.
func (in *Injector) LaunchHook() func(ctx context.Context, kernel string) error {
	if in == nil {
		return nil
	}
	return func(ctx context.Context, kernel string) error {
		if err := in.FaultCtx(ctx, SiteLaunch); err != nil {
			return fmt.Errorf("kernel %q: %w", kernel, err)
		}
		return nil
	}
}

// CorruptOption tunes a CorruptWriter.
type CorruptOption func(*corruptWriter)

// BurstErrors makes every corruption event damage n consecutive bytes
// (one flipped bit in each) instead of a single byte — the torn-sector /
// interference-burst model, the shape parity-frame repair exists for.
// n <= 1 is the default single-byte flip.
func BurstErrors(n int) CorruptOption {
	return func(c *corruptWriter) {
		if n > 1 {
			c.burst = n
		}
	}
}

// CorruptWriter wraps w so that roughly one corruption event per rate
// bytes fires on the way through (a single-bit flip by default, a
// multi-byte burst under BurstErrors), positions drawn deterministically
// from the injector's seed — the wire-corruption model salvage decoding
// is tested against. A nil injector returns w unchanged; a non-nil
// injector with rate <= 0 panics — that configuration silently armed a
// flipper that never fires, which is a test bug, not a choice. The
// wrapper probes SiteFrame once per corrupted byte, so Counts(SiteFrame)
// reports the corruption volume.
func (in *Injector) CorruptWriter(w io.Writer, rate int, opts ...CorruptOption) io.Writer {
	if in == nil {
		return w
	}
	if rate <= 0 {
		panic(fmt.Sprintf("faults: CorruptWriter rate %d; an armed corrupter needs rate > 0", rate))
	}
	in.mu.Lock()
	// A corrupting writer gets its own deterministic stream derived from
	// the injector seed, so interleaved Fault probes do not perturb the
	// flip positions.
	cw := &corruptWriter{w: w, in: in, rng: rand.New(rand.NewSource(in.seed ^ 0x5bd1e995)), rate: rate, burst: 1}
	in.mu.Unlock()
	for _, o := range opts {
		o(cw)
	}
	cw.next = cw.gap()
	return cw
}

type corruptWriter struct {
	w         io.Writer
	in        *Injector
	rng       *rand.Rand
	rate      int
	burst     int   // bytes corrupted per event
	burstLeft int   // remaining bytes of the in-progress burst
	next      int64 // bytes until the next corruption event
	off       int64
}

// gap draws the distance to the next flipped byte: uniform in [1, 2*rate],
// mean rate, strictly positive so consecutive flips never collide.
func (c *corruptWriter) gap() int64 {
	return 1 + int64(c.rng.Intn(2*c.rate))
}

// Write flips the scheduled bits inside p (copying first: callers own
// their buffers) and forwards to the underlying writer. A burst that
// outruns the buffer carries over into the next Write — the damage model
// lives in the byte stream, not in call boundaries.
func (c *corruptWriter) Write(p []byte) (int, error) {
	copied := false
	for i := range p {
		if c.burstLeft == 0 {
			c.next--
			if c.next > 0 {
				continue
			}
			c.burstLeft = c.burst
		}
		c.burstLeft--
		if !copied {
			q := make([]byte, len(p))
			copy(q, p)
			p = q
			copied = true
		}
		p[i] ^= byte(1) << uint(c.rng.Intn(8))
		c.in.mu.Lock()
		c.in.attempts[SiteFrame]++
		c.in.injected[SiteFrame]++
		c.in.mu.Unlock()
		if c.burstLeft == 0 {
			// Drawing the gap after the burst keeps the single-byte
			// rng sequence (bit, gap, bit, gap, ...) unchanged.
			c.next = c.gap()
		}
	}
	n, err := c.w.Write(p)
	c.off += int64(n)
	return n, err
}
