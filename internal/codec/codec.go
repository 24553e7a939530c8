// Package codec is the pluggable compression-engine seam: one interface
// every compressor in the repository implements, plus the registry that
// maps the container format's codec byte (and a short CLI-friendly name)
// to the engine that owns it.
//
// The streaming layer (core.Writer/Reader), the supervised dispatch
// ladder (gpu.CompressSupervised), the durable layer, and the CLI all
// dispatch through this package, so a new backend — a bigger-window
// kernel, multi-byte symbols à la GPULZ — plugs into retry, health
// supervision, parity, resume, and observability by registering one
// Engine.
//
// Contract (see DESIGN.md §15):
//
//   - Codec() is the format.Codec identity an engine writes into its
//     container headers and the value decode dispatch routes on.
//   - CompressCPU is the engine's degrade twin: a host-only encoder whose
//     output is byte-identical to Compress's, with no device fault
//     sites. Streams mix device-encoded and degraded segments freely, and
//     parity covers exact frame bytes, so the twin must be exact.
//   - DecompressInto decodes any container the engine produced,
//     honouring (but not requiring) the caller's output buffer.
//   - Engines must treat the nil-able option fields (Stats, Injector,
//     Health, Obs, Context) as inert when nil, matching the gpu layer.
package codec

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"culzss/internal/format"
	"culzss/internal/gpu"
)

// Engine is one compression backend behind the format's codec byte.
// Implementations must be stateless (or internally synchronized): one
// Engine value serves concurrent segments.
type Engine interface {
	// Codec is the container identity this engine writes and decodes.
	Codec() format.Codec
	// Name is the registry's short name ("v1", "v2", "cpu", "raw", ...),
	// the value CLI flags and StreamOptions.Codec carry.
	Name() string
	// Accelerated reports whether Compress drives the (simulated) device.
	// Accelerated engines ride the supervised dispatch ladder and the
	// Writer's retry policy; host engines fail fast — their errors are
	// deterministic.
	Accelerated() bool
	// Compress encodes data into a self-describing container.
	Compress(data []byte, opts gpu.Options) ([]byte, *gpu.Report, error)
	// CompressCPU is the byte-identical host twin (the degrade tail).
	CompressCPU(data []byte, opts gpu.Options) ([]byte, error)
	// DecompressInto decodes a container produced by this engine,
	// honouring dst when it has the capacity.
	DecompressInto(dst, container []byte, opts gpu.Options) ([]byte, *gpu.Report, error)
}

// ErrUnknownCodec is the sentinel every UnknownCodecError unwraps to:
// a structurally valid container whose codec byte no registered engine
// claims.
var ErrUnknownCodec = errors.New("codec: unknown codec")

// UnknownCodecError is the typed decode-dispatch failure, carrying the
// unclaimed codec value. errors.Is(err, ErrUnknownCodec) matches it.
type UnknownCodecError struct {
	Codec format.Codec
}

func (e *UnknownCodecError) Error() string {
	return fmt.Sprintf("codec: no engine registered for %v (codec byte %d)", e.Codec, uint8(e.Codec))
}

// Unwrap ties the typed error to the ErrUnknownCodec sentinel.
func (e *UnknownCodecError) Unwrap() error { return ErrUnknownCodec }

var (
	regMu   sync.RWMutex
	byCodec = map[format.Codec]Engine{}
	byName  = map[string]Engine{}
)

// Register adds an engine to the registry. Registry rules: one engine
// per codec value, one per name — a collision panics (it is a wiring
// bug, not a runtime condition), and the codec value must be
// structurally valid (within format.CodecMax).
func Register(e Engine) {
	regMu.Lock()
	defer regMu.Unlock()
	if !e.Codec().Valid() {
		panic(fmt.Sprintf("codec: Register(%q): codec value %d outside the structural range", e.Name(), uint8(e.Codec())))
	}
	if prev, ok := byCodec[e.Codec()]; ok {
		panic(fmt.Sprintf("codec: Register(%q): codec %v already owned by %q", e.Name(), e.Codec(), prev.Name()))
	}
	if _, ok := byName[e.Name()]; ok {
		panic(fmt.Sprintf("codec: Register(%q): name already taken", e.Name()))
	}
	byCodec[e.Codec()] = e
	byName[e.Name()] = e
}

// Lookup resolves the engine owning a container codec value.
func Lookup(c format.Codec) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := byCodec[c]
	return e, ok
}

// ByName resolves an engine by its registry name.
func ByName(name string) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := byName[name]
	return e, ok
}

// Engines returns the registered engines ordered by codec value (a
// stable iteration order for tests and table rendering).
func Engines() []Engine {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Engine, 0, len(byCodec))
	for _, e := range byCodec {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Codec() < out[j].Codec() })
	return out
}

// Names returns the registered engine names ordered by codec value.
func Names() []string {
	engines := Engines()
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.Name()
	}
	return names
}
