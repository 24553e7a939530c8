//go:build race

package lzss

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation slows byte loops about tenfold, so long sweeps shrink
// their inputs.
const raceEnabled = true
