package format

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// buildStream assembles a syntactically valid framed stream from segment
// (rawLen, container) pairs.
func buildStream(segSize int, segs [][2][]byte) []byte {
	out := AppendStreamHeader(nil, segSize)
	total := 0
	crc := uint32(0)
	for i, s := range segs {
		raw, container := s[0], s[1]
		out = AppendSegmentFrame(out, i, len(raw), container)
		total += len(raw)
		crc = Checksum32Update(crc, raw)
	}
	return AppendStreamTrailer(out, &StreamTrailer{Segments: len(segs), TotalLen: total, Checksum: crc})
}

func TestFrameRoundTrip(t *testing.T) {
	segs := [][2][]byte{
		{[]byte("first segment plaintext"), []byte("container-one")},
		{[]byte("second"), []byte("container-two-bytes")},
		{[]byte{}, []byte{}}, // zero-length segment is legal
	}
	stream := buildStream(1<<20, segs)

	fr, err := NewFrameReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if fr.SegmentSize != 1<<20 {
		t.Fatalf("SegmentSize = %d", fr.SegmentSize)
	}
	for i, want := range segs {
		frame, trailer, err := fr.Next()
		if err != nil || trailer != nil {
			t.Fatalf("frame %d: %v trailer=%v", i, err, trailer)
		}
		if frame.Index != i || frame.RawLen != len(want[0]) || !bytes.Equal(frame.Container, want[1]) {
			t.Fatalf("frame %d decoded wrong: %+v", i, frame)
		}
	}
	frame, trailer, err := fr.Next()
	if err != nil || frame != nil || trailer == nil {
		t.Fatalf("trailer read: frame=%v trailer=%v err=%v", frame, trailer, err)
	}
	if trailer.Segments != 3 || trailer.TotalLen != len(segs[0][0])+len(segs[1][0]) {
		t.Fatalf("trailer = %+v", trailer)
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after trailer: %v, want io.EOF", err)
	}
}

func TestFrameWriteHelpersMatchAppend(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteStreamHeader(&buf, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSegmentFrame(&buf, 0, 5, []byte("cont")); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteStreamTrailer(&buf, &StreamTrailer{Segments: 1, TotalLen: 5, Checksum: 42}); err != nil {
		t.Fatal(err)
	}
	want := AppendStreamHeader(nil, 4096)
	want = AppendSegmentFrame(want, 0, 5, []byte("cont"))
	want = AppendStreamTrailer(want, &StreamTrailer{Segments: 1, TotalLen: 5, Checksum: 42})
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("io helpers and append helpers disagree on the wire bytes")
	}
}

func TestFrameReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewFrameReader(bytes.NewReader([]byte("CLZ1xxxx"))); !errors.Is(err, ErrBadStreamMagic) {
		t.Fatalf("container magic: %v", err)
	}
	if _, err := NewFrameReader(bytes.NewReader([]byte("CL"))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short input: %v", err)
	}
	bad := AppendStreamHeader(nil, 1)
	bad[4] = 99 // version
	if _, err := NewFrameReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	bad = AppendStreamHeader(nil, 1)
	bad[5] = 1 // flags
	if _, err := NewFrameReader(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nonzero flags: %v", err)
	}
}

func TestFrameReaderDetectsCorruption(t *testing.T) {
	stream := buildStream(4096, [][2][]byte{
		{[]byte("hello hello hello"), []byte("payload-a")},
		{[]byte("world"), []byte("payload-b")},
	})

	drain := func(b []byte) error {
		fr, err := NewFrameReader(bytes.NewReader(b))
		if err != nil {
			return err
		}
		for {
			_, trailer, err := fr.Next()
			if err != nil {
				return err
			}
			if trailer != nil {
				return nil
			}
		}
	}

	if err := drain(stream); err != nil {
		t.Fatalf("pristine stream: %v", err)
	}

	// Every truncation point must fail — never a clean EOF mid-stream.
	for cut := len(stream) - 1; cut > 4; cut -= 3 {
		if err := drain(stream[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}

	// Container corruption trips the per-frame CRC.
	c := append([]byte(nil), stream...)
	c[len(AppendStreamHeader(nil, 4096))+15] ^= 0x01 // inside frame 0's container
	if err := drain(c); !errors.Is(err, ErrFrameChecksum) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFrameOrder) {
		t.Fatalf("corrupted container: %v", err)
	}

	// Out-of-order segment indices.
	oo := AppendStreamHeader(nil, 64)
	oo = AppendSegmentFrame(oo, 1, 3, []byte("abc")) // index 1 first
	if err := drain(oo); !errors.Is(err, ErrFrameOrder) {
		t.Fatalf("out-of-order frame: %v", err)
	}

	// Trailer that disagrees with the frames it follows.
	tr := AppendStreamHeader(nil, 64)
	tr = AppendSegmentFrame(tr, 0, 3, []byte("abc"))
	tr = AppendStreamTrailer(tr, &StreamTrailer{Segments: 2, TotalLen: 3})
	if err := drain(tr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment-count mismatch: %v", err)
	}
	tr = AppendStreamHeader(nil, 64)
	tr = AppendSegmentFrame(tr, 0, 3, []byte("abc"))
	tr = AppendStreamTrailer(tr, &StreamTrailer{Segments: 1, TotalLen: 99})
	if err := drain(tr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("totalLen mismatch: %v", err)
	}

	// Unknown marker byte.
	um := AppendStreamHeader(nil, 64)
	um = append(um, 0x7f)
	if err := drain(um); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown marker: %v", err)
	}

	// Implausible segment length must be rejected before allocating.
	big := AppendStreamHeader(nil, 64)
	big = append(big, 0x01) // segment marker
	big = appendUvarintBytes(big, 0)
	big = appendUvarintBytes(big, 7)
	big = appendUvarintBytes(big, uint64(MaxSegmentLen)+1)
	if err := drain(big); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized compLen: %v", err)
	}
}

// oversizedClaims are two tiny streams whose first record claims 1 GiB:
// a segment frame's container and a parity frame's shard. Both headers
// declare 64 KiB segments.
func oversizedClaims() (segment, parity []byte) {
	segment = AppendStreamHeader(nil, 64<<10)
	segment = append(segment, frameMarkerSegment)
	segment = appendUvarintBytes(segment, 0)      // index
	segment = appendUvarintBytes(segment, 64<<10) // rawLen
	segment = appendUvarintBytes(segment, 1<<30)  // compLen
	segment = append(segment, 0, 0, 0, 0)         // CRC
	parity = AppendStreamHeader(nil, 64<<10)
	parity = append(parity, frameMarkerParity, 0, 1, 1, 0) // firstIndex, k, m, j
	parity = appendUvarintBytes(parity, 1<<30)             // shardLen
	parity = appendUvarintBytes(parity, 64<<10)            // frameLens[0]
	parity = append(parity, 0, 0, 0, 0)                    // CRC
	return segment, parity
}

// TestFrameReaderBoundsClaimsBeforeAllocating feeds the normal-mode
// reader records that claim a 1 GiB container or shard in a stream of
// 64 KiB segments: each must fail as corrupt without allocating what it
// claims.
func TestFrameReaderBoundsClaimsBeforeAllocating(t *testing.T) {
	segment, parity := oversizedClaims()
	for name, stream := range map[string][]byte{"segment": segment, "parity": parity} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := NewFrameReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		_, _, err = fr.Next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s claim of 1 GiB (%d-byte stream): %v, want ErrCorrupt", name, len(stream), err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s claim of 1 GiB allocated %d bytes", name, n)
		}
	}
}

func appendUvarintBytes(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// FuzzFrameRoundTrip drives the frame decoder with truncated and mutated
// streams. Invariants: no panics, no unbounded allocations, and pristine
// streams round-trip losslessly.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(buildStream(4096, nil))
	f.Add(buildStream(1, [][2][]byte{{[]byte("x"), []byte("c")}}))
	f.Add(buildStream(1<<20, [][2][]byte{
		{bytes.Repeat([]byte("ab"), 100), bytes.Repeat([]byte{0x5a}, 40)},
		{[]byte("tail"), []byte("zz")},
	}))
	f.Add([]byte(StreamMagic))
	f.Add(append([]byte(StreamMagic), StreamVersion, 0, 0x80, 0x80, 0x80))
	segment, parity := oversizedClaims()
	f.Add(segment)
	f.Add(parity)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFrameReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var frames []*SegmentFrame
		var trailer *StreamTrailer
		for {
			frame, tr, err := fr.Next()
			if err != nil {
				return // truncated/corrupt input is fine, just no panic
			}
			if tr != nil {
				trailer = tr
				break
			}
			frames = append(frames, frame)
			if len(frames) > 1<<16 {
				t.Fatal("frame decoder failed to terminate")
			}
		}
		// A stream the decoder fully accepted must survive a re-encode /
		// re-decode cycle with identical records. (Byte identity is too
		// strong: ReadUvarint tolerates non-canonical varint encodings and
		// the decoder ignores trailing bytes after the trailer.)
		out := AppendStreamHeader(nil, fr.SegmentSize)
		for _, fr := range frames {
			out = AppendSegmentFrame(out, fr.Index, fr.RawLen, fr.Container)
		}
		out = AppendStreamTrailer(out, trailer)
		fr2, err := NewFrameReader(bytes.NewReader(out))
		if err != nil || fr2.SegmentSize != fr.SegmentSize {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		for i := 0; ; i++ {
			frame, tr, err := fr2.Next()
			if err != nil {
				t.Fatalf("re-decode frame %d: %v", i, err)
			}
			if tr != nil {
				if i != len(frames) || *tr != *trailer {
					t.Fatalf("re-decode trailer mismatch: %+v vs %+v after %d frames", tr, trailer, i)
				}
				break
			}
			if i >= len(frames) || frame.Index != frames[i].Index ||
				frame.RawLen != frames[i].RawLen || !bytes.Equal(frame.Container, frames[i].Container) {
				t.Fatalf("re-decode frame %d mismatch", i)
			}
		}
	})
}
