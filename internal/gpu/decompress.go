package gpu

import (
	"fmt"

	"culzss/internal/cudasim"
	"culzss/internal/faults"
	"culzss/internal/format"
	"culzss/internal/lzss"
)

// Decompress expands a CULZSS container with the chunk-parallel GPU
// decoder (paper §III.C): the per-chunk compressed-size list recorded at
// compression time tells each thread which slice of the payload decodes
// into which slice of the output, so chunks decode independently. Both
// CULZSS versions share this decoder ("the decompression process is
// identical in both versions").
func Decompress(container []byte, opts Options) ([]byte, *Report, error) {
	return DecompressInto(nil, container, opts)
}

// DecompressInto is Decompress with allocation control: when dst has the
// capacity for the decoded output it is overwritten and returned
// (resliced to the decoded length), otherwise a fresh buffer is
// allocated. The streaming Reader leases dst from a recycle pool, so
// steady-state segment decode performs no per-segment output allocation.
func DecompressInto(dst []byte, container []byte, opts Options) ([]byte, *Report, error) {
	h, off, err := format.ParseHeader(container)
	if err != nil {
		return nil, nil, err
	}
	switch h.Codec {
	case format.CodecCULZSSV1, format.CodecCULZSSV2:
	default:
		return nil, nil, fmt.Errorf("gpu: container holds %v, not a CULZSS stream", h.Codec)
	}
	cfg := lzss.Config{Window: h.Window, MaxMatch: h.Lookahead, MinMatch: int(h.MinMatch)}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	opts.fill(h.Codec)
	if err := opts.ctxErr(); err != nil {
		return nil, nil, err
	}
	dev := opts.device()

	payload := container[off:]
	bounds := h.ChunkBounds()
	// Bound each chunk's claim by its payload before allocating for it:
	// a coded token takes two bytes and its one-byte length field caps
	// the match at MinMatch+255 bytes; a literal yields less. The claims
	// must also cover OriginalLen, or chunk-less headers could still ask
	// for any amount.
	claimed := 0
	for _, bd := range bounds {
		if bd.UncompLen > bd.CompLen/2*(cfg.MinMatch+255) {
			return nil, nil, fmt.Errorf("gpu: chunk %d: %w: %d payload bytes cannot decode to %d",
				bd.Index, format.ErrCorrupt, bd.CompLen, bd.UncompLen)
		}
		claimed += bd.UncompLen
	}
	if claimed != h.OriginalLen {
		return nil, nil, fmt.Errorf("gpu: %w: chunks cover %d of %d bytes", format.ErrCorrupt, claimed, h.OriginalLen)
	}
	var out []byte
	if cap(dst) >= h.OriginalLen {
		out = dst[:h.OriginalLen]
	} else {
		out = make([]byte, h.OriginalLen)
	}
	tpb := opts.ThreadsPerBlock
	blocks := (len(bounds) + tpb - 1) / tpb
	if blocks == 0 {
		blocks = 1
	}

	var rec faultRecorder
	if err := opts.transferFault("h2d"); err != nil {
		return nil, nil, err
	}
	rep, err := dev.LaunchPhased(cudasim.LaunchConfig{
		Kernel:          "culzss_decompress",
		Blocks:          blocks,
		ThreadsPerBlock: tpb,
		Serialization:   SerializationDecode,
		HostWorkers:     opts.HostWorkers,
		Context:         opts.Context,
	}, func(b *cudasim.BlockCtx) {
		base := b.Index * tpb
		b.Parallel(func(th *cudasim.ThreadCtx) {
			ci := base + th.Tid
			if ci >= len(bounds) || rec.tripped() {
				return // early abort: a recorded fault voids the launch
			}
			if ierr := opts.Injector.Fault(faults.SiteChunk); ierr != nil {
				rec.record(ci, fmt.Errorf("gpu: chunk %d: %w", ci, ierr))
				return
			}
			bd := bounds[ci]
			// Decode in place: the three-index subslice is this chunk's
			// slot of out, and the decoder writes only inside it, so a
			// successful decode has already written exactly its bytes —
			// no copy-back.
			slot := out[bd.UncompOff:bd.UncompOff:(bd.UncompOff + bd.UncompLen)]
			if _, derr := lzss.AppendDecodedByteAligned(slot, payload[bd.CompOff:bd.CompOff+bd.CompLen], bd.UncompLen, cfg); derr != nil {
				rec.record(ci, fmt.Errorf("gpu: chunk %d: %w", ci, derr))
				return
			}

			// Timing model: decompression is "mainly reading from and
			// writing to memory" (paper §IV.D) — a short copy loop per
			// output byte plus scattered per-thread streaming traffic.
			th.Work(int64(bd.UncompLen) * CyclesPerDecodedByte)
			th.GlobalAccess(int64((bd.CompLen+cudasim.TransactionBytes-1)/cudasim.TransactionBytes), int64(bd.CompLen))
			th.GlobalAccess(int64((bd.UncompLen+cudasim.TransactionBytes-1)/cudasim.TransactionBytes), int64(bd.UncompLen))
		})
	})
	if err != nil {
		return nil, nil, err
	}
	if ferr := rec.error(); ferr != nil {
		return nil, nil, ferr
	}
	if err := opts.transferFault("d2h"); err != nil {
		return nil, nil, err
	}

	if format.Checksum32(out) != h.Checksum {
		return nil, nil, format.ErrChecksum
	}
	report := &Report{
		Launch:      rep,
		H2D:         dev.TransferTime(len(payload)),
		D2H:         dev.TransferTime(len(out)),
		InputBytes:  len(container),
		OutputBytes: len(out),
	}
	observeReport(opts.Obs, "decompress", report)
	return out, report, nil
}
