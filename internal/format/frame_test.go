package format

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
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

// hugeClaim is a 31-byte stream whose header declares 1 GiB segments and
// whose one frame claims a 1 GiB segment in a 1 GiB container: the frame
// bound lets the claim through, so only the window's growth rule keeps a
// reader from allocating it.
func hugeClaim() []byte {
	s := AppendStreamHeader(nil, 1<<30)
	s = append(s, frameMarkerSegment, 0)
	s = appendUvarintBytes(s, 1<<30)                                 // rawLen
	s = appendUvarintBytes(s, 1<<30)                                 // compLen
	return append(s, 0xde, 0xad, 0xbe, 0xef, 0xaa, 0xaa, 0xaa, 0xaa) // CRC, then 4 container bytes
}

// TestFrameReaderOverlongVarintIsCorrupt: a varint longer than any
// 64-bit value is corrupt input, not an I/O failure, in a record and in
// the stream header.
func TestFrameReaderOverlongVarintIsCorrupt(t *testing.T) {
	stream := append(AppendStreamHeader(nil, 64), frameMarkerSegment)
	stream = append(stream, bytes.Repeat([]byte{0x80}, 10)...)
	stream = append(stream, 1, 3, 3, 0, 0, 0, 0, 'a', 'b', 'c')
	fr, err := NewFrameReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlong index varint: %v, want ErrCorrupt", err)
	}
	header := append([]byte(StreamMagic), StreamVersion, 0)
	header = append(header, bytes.Repeat([]byte{0xff}, 10)...)
	if _, err := NewFrameReader(bytes.NewReader(append(header, 1))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlong segment-size varint: %v, want ErrCorrupt", err)
	}
}

// TestFrameReaderOffset: Offset is the end of the header, then of each
// record Next consumed, parity frames included, whatever the window read
// ahead.
func TestFrameReaderOffset(t *testing.T) {
	segs := buildParitySegs(6)
	stream, recOffs, trailerOff := buildParityStreamOffs(t, segs, 4, 2)
	fr, err := NewFrameReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if got := fr.Offset(); got != int64(recOffs[0]) {
		t.Fatalf("after the header: Offset %d, want %d", got, recOffs[0])
	}
	ends := append(recOffs[1:], trailerOff)
	var parityEnds []int64
	fr.OnParity = func(*ParityFrame) { parityEnds = append(parityEnds, fr.Offset()) }
	var got []int64
	for {
		_, tr, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fr.Offset())
		if tr != nil {
			break
		}
	}
	if got[len(got)-1] != int64(len(stream)) {
		t.Fatalf("after the trailer: Offset %d, want %d", got[len(got)-1], len(stream))
	}
	// Every record end is either a segment frame's (seen after Next) or a
	// parity frame's (seen in OnParity).
	seen := map[int64]bool{}
	for _, o := range append(got[:len(got)-1], parityEnds...) {
		seen[o] = true
	}
	for _, e := range ends {
		if !seen[int64(e)] {
			t.Fatalf("no Offset reported the record end %d (segments %v, parity %v)", e, got, parityEnds)
		}
	}
}

// TestFrameReaderWindowReuse: a reader that reaches its trailer hands its
// window to the next reader, possibly on another goroutine. Frames
// already returned must not change when another stream fills that
// window, and a reader must not keep a pooled array beyond its own
// stream's windowBound.
func TestFrameReaderWindowReuse(t *testing.T) {
	drain := func(stream []byte) ([]*SegmentFrame, error) {
		fr, err := NewFrameReader(bytes.NewReader(stream))
		if err != nil {
			return nil, err
		}
		var frames []*SegmentFrame
		for {
			f, tr, err := fr.Next()
			if err != nil || tr != nil {
				return frames, err
			}
			frames = append(frames, f)
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Alternate two fills, so a reused window is overwritten
			// with other bytes at the same offsets.
			fills := [2][]byte{bytes.Repeat([]byte{byte('a' + g)}, 700), bytes.Repeat([]byte{byte('A' + g)}, 700)}
			var kept [2][]*SegmentFrame
			for i := range 50 {
				fill := fills[i%2]
				frames, err := drain(buildStream(1<<10, [][2][]byte{{[]byte("raw"), fill}, {[]byte("raw"), fill}}))
				if err != nil {
					t.Error(err)
					return
				}
				kept[i%2] = append(kept[i%2], frames...)
			}
			for k, frames := range kept {
				for _, f := range frames {
					if !bytes.Equal(f.Container, fills[k]) {
						t.Errorf("goroutine %d: a returned container changed after its reader's window was reused", g)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// 1-byte segments in a stream far longer than their windowBound: the
	// header's fills must not read the stream into a larger pooled array.
	var segs [][2][]byte
	for i := range 200 {
		segs = append(segs, [2][]byte{{'x'}, bytes.Repeat([]byte{byte(i)}, 4000)})
	}
	_, maxComp := frameBound(1)
	bound := windowBound(maxComp)
	for range 4 { // some may sit where this goroutine cannot reach them
		putWindow(make([]byte, 4*bound))
	}
	fr, err := NewFrameReader(bytes.NewReader(buildStream(1, segs)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if c := cap(fr.win); c > bound {
			t.Fatalf("reader of 1-byte segments holds a %d-byte window after %d records, bound %d", c, i, bound)
		}
		f, tr, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			break
		}
		if !bytes.Equal(f.Container, segs[i][1]) {
			t.Fatalf("segment %d decoded wrong", i)
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
	f.Add(hugeClaim())
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
