//go:build race

package gpu

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates on its own and slows real CPU work ~10x, so
// allocation tests skip under -race and long sweeps shrink their inputs.
const raceEnabled = true
