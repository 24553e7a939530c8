package codec

import (
	"fmt"

	"culzss/internal/format"
	"culzss/internal/gpu"
)

// engineRaw is the store-raw codec (format.CodecStoreRaw): the payload
// is the plaintext verbatim, one chunk, no LZSS state. The adaptive
// selector emits it for segments that would expand under LZSS — the
// byte-aligned token stream pays ~12.5% on incompressible data, the raw
// store pays only the container header (a few dozen bytes). Compress is
// host-only (there is nothing to accelerate), so the engine is its own
// degrade twin.
type engineRaw struct{}

func (engineRaw) Codec() format.Codec { return format.CodecStoreRaw }
func (engineRaw) Name() string        { return "raw" }
func (engineRaw) Accelerated() bool   { return false }

// RawOverhead is the worst-case container overhead of a store-raw
// segment: header fields plus the single chunk-table entry. The adaptive
// selector's guarantee — a segment never expands by more than the
// container header — is this bound.
const RawOverhead = len(format.Magic) + 4 /*version,codec,minMatch,reserved*/ +
	4 /*checksum*/ + 5*binaryMaxVarint /*window,lookahead,chunkSize,originalLen,chunkCount*/ +
	binaryMaxVarint /*one chunk size*/

// binaryMaxVarint is the encoded size of the largest varint the header
// can carry (format caps varints at 2^40, i.e. 6 encoded bytes).
const binaryMaxVarint = 6

func (engineRaw) Compress(data []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	if err := ctxErr(opts); err != nil {
		return nil, nil, err
	}
	// One chunk, the plaintext itself; empty data has none.
	return format.Assemble(&format.Header{Codec: format.CodecStoreRaw}, data, format.SplitChunks(data, 0)), nil, nil
}

func (e engineRaw) CompressCPU(data []byte, opts gpu.Options) ([]byte, error) {
	out, _, err := e.Compress(data, opts)
	return out, err
}

func (engineRaw) DecompressInto(dst, container []byte, opts gpu.Options) ([]byte, *gpu.Report, error) {
	h, payloadOff, err := format.ParseHeader(container)
	if err != nil {
		return nil, nil, err
	}
	if h.Codec != format.CodecStoreRaw {
		return nil, nil, fmt.Errorf("codec: container holds %v, not a raw store", h.Codec)
	}
	payload := container[payloadOff:]
	if len(payload) < h.OriginalLen {
		return nil, nil, fmt.Errorf("%w: raw payload %d bytes, header says %d",
			format.ErrTruncated, len(payload), h.OriginalLen)
	}
	payload = payload[:h.OriginalLen]
	if format.Checksum32(payload) != h.Checksum {
		return nil, nil, format.ErrChecksum
	}
	if cap(dst) >= len(payload) {
		dst = dst[:len(payload)]
	} else {
		dst = make([]byte, len(payload))
	}
	copy(dst, payload)
	return dst, nil, nil
}
