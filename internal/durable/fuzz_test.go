package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/format"
)

// TestScanTailTruncateEveryByte is the exhaustive sweep the resume
// protocol leans on: for every truncation point in (the first 8 KiB of)
// a multi-frame stream, ScanTail must land exactly on the greatest
// record boundary at or before the cut, never past it, and never panic
// or over-read.
func TestScanTailTruncateEveryByte(t *testing.T) {
	const segSize = 512
	input := datasets.CFiles(4<<10, 19) // 8 frames of 512 bytes
	p := core.Params{}
	ref := refStream(t, input, p, segSize)
	bounds := boundaries(t, ref)

	limit := len(ref)
	if limit > 8<<10 {
		limit = 8 << 10
	}
	for cut := 0; cut <= limit; cut++ {
		want := int64(0)
		frames := 0
		for i, b := range bounds {
			if b <= int64(cut) {
				want = b
				frames = i // bounds[0] is the header boundary
			}
		}
		if frames > 8 {
			frames = 8 // the last boundary is the trailer, not a frame
		}
		rep, err := ScanTail(bytes.NewReader(ref[:cut]), p)
		if err != nil {
			// Cuts inside the 4-byte magic legitimately fail the
			// stream-identity check rather than reporting a tail.
			if cut >= len(format.StreamMagic) {
				t.Fatalf("cut %d: %v", cut, err)
			}
			continue
		}
		if rep.LastGoodOffset != want {
			t.Fatalf("cut %d: LastGoodOffset = %d, want %d", cut, rep.LastGoodOffset, want)
		}
		if rep.LastGoodOffset+rep.Truncated != int64(cut) {
			t.Fatalf("cut %d: offset %d + truncated %d != size", cut, rep.LastGoodOffset, rep.Truncated)
		}
		if rep.HeaderOK && rep.NextIndex != frames {
			t.Fatalf("cut %d: NextIndex = %d, want %d", cut, rep.NextIndex, frames)
		}
		if rep.TotalLen != rep.NextIndex*segSize {
			t.Fatalf("cut %d: TotalLen = %d over %d frames", cut, rep.TotalLen, rep.NextIndex)
		}
		if rep.Complete != (cut == len(ref)) {
			t.Fatalf("cut %d: Complete = %v", cut, rep.Complete)
		}
	}
}

// TestScanTailBoundsFrameClaimByInput: a 31-byte stream whose header
// declares 1 GiB segments, and whose one frame claims a 1 GiB container,
// is a stream cut after its header. ScanTail reports it as such, with
// ErrTruncated as the Cause, without allocating what the frame claims.
func TestScanTailBoundsFrameClaimByInput(t *testing.T) {
	stream := format.AppendStreamHeader(nil, 1<<30)
	header := len(stream)
	stream = append(stream, 0x01, 0)             // segment marker, index
	stream = binary.AppendUvarint(stream, 1<<30) // rawLen
	stream = binary.AppendUvarint(stream, 1<<30) // compLen
	stream = append(stream, 0xde, 0xad, 0xbe, 0xef, 0xaa, 0xaa, 0xaa, 0xaa)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := ScanTail(bytes.NewReader(stream), core.Params{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Cause, format.ErrTruncated) || !rep.HeaderOK || rep.LastGoodOffset != int64(header) {
		t.Fatalf("report %+v, want the header kept and Cause ErrTruncated", rep)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("%d-byte stream claiming a 1 GiB container allocated %d bytes", len(stream), alloc)
	}
}

// FuzzScanTail feeds arbitrary bytes to the tail scanner. Whatever the
// input, the scanner must not panic, must account for every byte
// (LastGoodOffset + Truncated == size), must keep the good offset inside
// the input, and must be prefix-monotonic: deleting the final byte can
// only shrink (or keep) the verified prefix.
func FuzzScanTail(f *testing.F) {
	p := core.Params{}
	input := datasets.CFiles(2<<10, 19)
	var seedBuf bytes.Buffer
	w := core.NewWriterOptions(&seedBuf, p, core.StreamOptions{Codec: "v1", SegmentSize: 512})
	_, _ = w.Write(input)
	_ = w.Close()
	valid := seedBuf.Bytes()

	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte{}, valid...), 0xff))
	mangled := append([]byte{}, valid...)
	mangled[len(mangled)/2] ^= 0x40
	f.Add(mangled)
	f.Add([]byte("CLZS"))
	f.Add([]byte{'C', 'L', 'Z', 'S', 1, 0, 0x80, 0x80, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ScanTail(bytes.NewReader(data), p)
		if err != nil {
			return // not a CLZS stream at all — fine, just must not panic
		}
		size := int64(len(data))
		if rep.LastGoodOffset < 0 || rep.LastGoodOffset > size {
			t.Fatalf("LastGoodOffset %d outside [0,%d]", rep.LastGoodOffset, size)
		}
		if rep.LastGoodOffset+rep.Truncated != size {
			t.Fatalf("offset %d + truncated %d != size %d", rep.LastGoodOffset, rep.Truncated, size)
		}
		if rep.TotalLen < 0 || rep.NextIndex < 0 {
			t.Fatalf("negative progress: %+v", rep)
		}
		if len(data) > 0 {
			prev, err := ScanTail(bytes.NewReader(data[:len(data)-1]), p)
			if err == nil && prev.LastGoodOffset > rep.LastGoodOffset {
				t.Fatalf("prefix scans further than the full input: %d > %d",
					prev.LastGoodOffset, rep.LastGoodOffset)
			}
		}
	})
}
