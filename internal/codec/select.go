package codec

import (
	"culzss/internal/format"
	"culzss/internal/lzss"
)

// Auto is the codec name selecting the adaptive per-input (per-segment,
// in a stream) engine choice implemented by SelectCodec.
const Auto = "auto"

// selectSampleLen is the probe size: enough bytes for a stable ratio
// estimate, cheap next to compressing the segment itself.
const selectSampleLen = 32 << 10

// Ratio thresholds (compressed/original of the probe):
//   - >= rawThreshold: LZSS cannot shrink the sample, so token framing
//     would expand the segment — store it raw (GPULZ and CODAG make the
//     same call for incompressible pages).
//   - < v1Threshold: highly compressible — V1 wins (§V, Table I's
//     crossover: DE map and highly-compressible favour V1).
//   - otherwise: V2, the paper's headline kernel for ~50%-or-less
//     compressible data.
const (
	rawThreshold = 1.0
	v1Threshold  = 0.45
)

// SelectCodec is the adaptive selector: it compresses a small middle
// sample with a fast matcher and picks the engine by the observed ratio
// — V1 / V2 / raw-store. The choice is recorded in the emitted
// container's codec byte, so a stream may change engines at every
// segment and any Reader dispatches per frame with no extra wire state.
func SelectCodec(data []byte) format.Codec {
	sample := data
	if len(sample) > selectSampleLen {
		// Sample from the middle: file headers are unrepresentative.
		start := (len(data) - selectSampleLen) / 2
		sample = data[start : start+selectSampleLen]
	}
	if len(sample) == 0 {
		return format.CodecStoreRaw
	}
	comp, err := lzss.EncodeByteAligned(sample, lzss.CULZSSV1(), lzss.SearchHashChain, nil)
	if err != nil {
		return format.CodecCULZSSV2
	}
	ratio := float64(len(comp)) / float64(len(sample))
	switch {
	case ratio >= rawThreshold:
		return format.CodecStoreRaw
	case ratio < v1Threshold:
		return format.CodecCULZSSV1
	default:
		return format.CodecCULZSSV2
	}
}
