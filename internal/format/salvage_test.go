package format

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// buildSalvageStream assembles a framed stream with n segments of
// distinct, recognisable container payloads and returns the stream plus
// the byte offset of each segment frame.
func buildSalvageStream(n int) (stream []byte, frameOff []int, containers [][]byte) {
	out := AppendStreamHeader(nil, 1<<10)
	total := 0
	for i := 0; i < n; i++ {
		container := bytes.Repeat([]byte{byte('A' + i)}, 50+i)
		containers = append(containers, container)
		frameOff = append(frameOff, len(out))
		out = AppendSegmentFrame(out, i, 100+i, container)
		total += 100 + i
	}
	out = AppendStreamTrailer(out, &StreamTrailer{Segments: n, TotalLen: total, Checksum: 0xdeadbeef})
	return out, frameOff, nil
}

// drainSalvage decodes a whole stream in salvage mode, collecting frames,
// corruption reports, and the terminal state.
func drainSalvage(t *testing.T, data []byte) (frames []*SegmentFrame, corrupt []*CorruptSegmentError, trailer *StreamTrailer, termErr error) {
	t.Helper()
	fr, err := NewFrameReaderSalvage(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("open salvage reader: %v", err)
	}
	for i := 0; i < 1<<16; i++ {
		frame, tr, err := fr.Next()
		if err != nil {
			var cse *CorruptSegmentError
			if errors.As(err, &cse) {
				corrupt = append(corrupt, cse)
				continue
			}
			return frames, corrupt, nil, err
		}
		if tr != nil {
			return frames, corrupt, tr, nil
		}
		frames = append(frames, frame)
	}
	t.Fatal("salvage decoder failed to terminate")
	return
}

func TestSalvageCleanStreamMatchesNormal(t *testing.T) {
	data, _, _ := buildSalvageStream(5)
	frames, corrupt, trailer, err := drainSalvage(t, data)
	if err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if len(corrupt) != 0 {
		t.Fatalf("clean stream reported %d corrupt regions", len(corrupt))
	}
	if len(frames) != 5 || trailer == nil || trailer.Segments != 5 {
		t.Fatalf("frames=%d trailer=%+v", len(frames), trailer)
	}
	for i, f := range frames {
		if f.Index != i || f.RawLen != 100+i {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
}

func TestSalvageSingleBitFlipRecoversOtherSegments(t *testing.T) {
	data, off, _ := buildSalvageStream(6)
	// Flip one bit inside segment 2's container bytes.
	bad := make([]byte, len(data))
	copy(bad, data)
	bad[off[2]+20] ^= 0x10

	frames, corrupt, trailer, err := drainSalvage(t, bad)
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	var got []int
	for _, f := range frames {
		got = append(got, f.Index)
		if Checksum32(f.Container) != Checksum32(bytes.Repeat([]byte{byte('A' + f.Index)}, 50+f.Index)) {
			t.Fatalf("segment %d delivered with damaged container", f.Index)
		}
	}
	want := []int{0, 1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered %v, want %v", got, want)
		}
	}
	if len(corrupt) != 1 {
		t.Fatalf("want 1 corrupt region, got %d: %v", len(corrupt), corrupt)
	}
	cse := corrupt[0]
	if cse.Index != 2 {
		t.Fatalf("corrupt region names segment %d, want 2", cse.Index)
	}
	if cse.Offset != int64(off[2]) {
		t.Fatalf("corrupt region offset %d, want %d", cse.Offset, off[2])
	}
	if cse.Skipped != int64(off[3]-off[2]) {
		t.Fatalf("skipped %d bytes, want the whole damaged frame %d", cse.Skipped, off[3]-off[2])
	}
	if !errors.Is(cse, ErrFrameChecksum) {
		t.Fatalf("cause = %v, want frame checksum mismatch", cse.Err)
	}
	if trailer == nil {
		t.Fatal("trailer lost")
	}
}

func TestSalvageCorruptMarkerByte(t *testing.T) {
	data, off, _ := buildSalvageStream(4)
	bad := make([]byte, len(data))
	copy(bad, data)
	bad[off[1]] = 0x7f // destroy segment 1's marker

	frames, corrupt, trailer, err := drainSalvage(t, bad)
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if len(frames) != 3 || len(corrupt) != 1 || trailer == nil {
		t.Fatalf("frames=%d corrupt=%d trailer=%v", len(frames), len(corrupt), trailer)
	}
	if !errors.Is(corrupt[0], ErrCorrupt) {
		t.Fatalf("cause = %v", corrupt[0].Err)
	}
}

func TestSalvageTruncatedTailReportsThenTruncated(t *testing.T) {
	data, off, _ := buildSalvageStream(4)
	cut := data[:off[3]+5] // cut mid-way through segment 3's record

	frames, corrupt, trailer, err := drainSalvage(t, cut)
	if len(frames) != 3 {
		t.Fatalf("recovered %d frames, want 3", len(frames))
	}
	if trailer != nil {
		t.Fatal("truncated stream cannot produce a trailer")
	}
	if len(corrupt) != 1 || !errors.Is(corrupt[0], ErrTruncated) {
		t.Fatalf("corrupt=%v", corrupt)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("terminal err = %v, want ErrTruncated", err)
	}
}

func TestSalvageCleanBoundaryTruncation(t *testing.T) {
	data, off, _ := buildSalvageStream(4)
	cut := data[:off[2]] // stream ends exactly at a record boundary

	frames, corrupt, trailer, err := drainSalvage(t, cut)
	if len(frames) != 2 || len(corrupt) != 0 || trailer != nil {
		t.Fatalf("frames=%d corrupt=%d trailer=%v", len(frames), len(corrupt), trailer)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("terminal err = %v", err)
	}
}

func TestSalvageCorruptedTrailer(t *testing.T) {
	data, _, _ := buildSalvageStream(3)
	bad := make([]byte, len(data))
	copy(bad, data)
	// The trailer is the final record: marker + varints + 4 CRC bytes.
	// Destroy its marker so it cannot parse.
	trailerOff := len(data) - 1 - 4 - 2 // crc(4) + two short varints
	for trailerOff > 0 && bad[trailerOff] != frameMarkerTrailer {
		trailerOff--
	}
	bad[trailerOff] = 0x55

	frames, corrupt, trailer, err := drainSalvage(t, bad)
	if len(frames) != 3 {
		t.Fatalf("recovered %d frames, want all 3", len(frames))
	}
	if trailer != nil {
		t.Fatal("destroyed trailer should not be delivered")
	}
	if len(corrupt) != 1 {
		t.Fatalf("corrupt=%v", corrupt)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("terminal err = %v", err)
	}
}

func TestSalvageExcisedFrameIsCleanGap(t *testing.T) {
	data, off, _ := buildSalvageStream(5)
	// Remove segment 2's frame entirely (clean excision, no byte damage).
	cut := append(append([]byte{}, data[:off[2]]...), data[off[3]:]...)

	frames, corrupt, trailer, err := drainSalvage(t, cut)
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	var got []int
	for _, f := range frames {
		got = append(got, f.Index)
	}
	if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("recovered %v", got)
	}
	if len(corrupt) != 1 || corrupt[0].Index != 2 || corrupt[0].Skipped != 0 {
		t.Fatalf("corrupt=%v", corrupt)
	}
	if !errors.Is(corrupt[0], ErrFrameOrder) {
		t.Fatalf("cause = %v", corrupt[0].Err)
	}
	if trailer == nil {
		t.Fatal("trailer lost")
	}
}

func TestSalvageTwoDamagedRegions(t *testing.T) {
	data, off, _ := buildSalvageStream(8)
	bad := make([]byte, len(data))
	copy(bad, data)
	bad[off[1]+10] ^= 0x01
	bad[off[5]+10] ^= 0x80

	frames, corrupt, trailer, err := drainSalvage(t, bad)
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if len(frames) != 6 || len(corrupt) != 2 || trailer == nil {
		t.Fatalf("frames=%d corrupt=%d trailer=%v", len(frames), len(corrupt), trailer)
	}
	if corrupt[0].Index != 1 || corrupt[1].Index != 5 {
		t.Fatalf("corrupt regions %v", corrupt)
	}
}

func TestSalvageHeaderErrorsMatchNormalMode(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("CLZ"),
		[]byte("NOPE"),
		[]byte("XXXXXXXX"),
		append([]byte(StreamMagic), 99, 0, 1), // bad version
		append([]byte(StreamMagic), StreamVersion, 7, 1), // bad flags
	}
	for i, c := range cases {
		_, errN := NewFrameReader(bytes.NewReader(c))
		_, errS := NewFrameReaderSalvage(bytes.NewReader(c))
		if (errN == nil) != (errS == nil) {
			t.Fatalf("case %d: normal err %v, salvage err %v", i, errN, errS)
		}
		if errN != nil && errS != nil && errN.Error() != errS.Error() {
			t.Fatalf("case %d: normal %q vs salvage %q", i, errN, errS)
		}
	}
}

// TestSalvageNeverDeliversBadCRC is the core guarantee: every container a
// salvage reader hands back verified its per-frame CRC, no matter how the
// input was mangled.
func TestSalvageNeverDeliversBadCRC(t *testing.T) {
	data, _, _ := buildSalvageStream(6)
	for pos := 0; pos < len(data); pos += 3 {
		for _, bit := range []byte{0x01, 0x80} {
			bad := make([]byte, len(data))
			copy(bad, data)
			bad[pos] ^= bit
			fr, err := NewFrameReaderSalvage(bytes.NewReader(bad))
			if err != nil {
				continue // header damage: unrecoverable by contract
			}
			for i := 0; i < 1<<12; i++ {
				frame, trailer, err := fr.Next()
				if err != nil {
					var cse *CorruptSegmentError
					if errors.As(err, &cse) {
						continue
					}
					break
				}
				if trailer != nil {
					break
				}
				// Any delivered container must be one of the original
				// containers, bit-exact: the per-frame CRC covers the
				// container bytes, so damage there can never get through.
				// (A flip in the unprotected frame *header* may mislabel
				// an intact container's index — the container-level
				// checksum downstream still protects the plaintext.)
				ok := false
				for j := 0; j < 6; j++ {
					if bytes.Equal(frame.Container, bytes.Repeat([]byte{byte('A' + j)}, 50+j)) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("flip at %d/%#x: salvage delivered a damaged container (labelled segment %d)", pos, bit, frame.Index)
				}
			}
		}
	}
}

func TestSalvageReaderIOErrorIsSticky(t *testing.T) {
	data, off, _ := buildSalvageStream(3)
	boom := errors.New("disk on fire")
	fr, err := NewFrameReaderSalvage(io.MultiReader(
		bytes.NewReader(data[:off[2]+4]),
		&errReader{err: boom},
	))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		_, _, err := fr.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("terminal err = %v, want the I/O error", err)
			}
			break
		}
		seen++
	}
	if seen != 2 {
		t.Fatalf("delivered %d frames before the I/O error, want 2", seen)
	}
	if _, _, err := fr.Next(); !errors.Is(err, boom) {
		t.Fatalf("I/O error must be sticky, got %v", err)
	}
}

type errReader struct{ err error }

func (e *errReader) Read([]byte) (int, error) { return 0, e.err }

// TestSalvageRejectsRawLenBeyondSegmentSize: rawLen lies outside the
// frame CRC, so a flip there yields a record that still checksums. A
// claim beyond the header's segment size is corrupt all the same:
// salvage skips the record as a damaged region and the normal reader
// fails on it.
func TestSalvageRejectsRawLenBeyondSegmentSize(t *testing.T) {
	out := AppendStreamHeader(nil, 1<<10)
	out = AppendSegmentFrame(out, 0, 1000, []byte("first"))
	out = AppendSegmentFrame(out, 1, 1<<10+1, []byte("second"))
	out = AppendSegmentFrame(out, 2, 1000, []byte("third"))
	out = AppendStreamTrailer(out, &StreamTrailer{Segments: 3, TotalLen: 2000 + 1<<10 + 1})

	frames, corrupt, trailer, err := drainSalvage(t, out)
	if err != nil || trailer == nil {
		t.Fatalf("salvage: trailer %v, err %v", trailer, err)
	}
	if len(frames) != 2 || frames[0].Index != 0 || frames[1].Index != 2 {
		t.Fatalf("salvage delivered %d frames, want segments 0 and 2", len(frames))
	}
	if len(corrupt) != 1 || corrupt[0].Index != 1 || !errors.Is(corrupt[0], ErrCorrupt) {
		t.Fatalf("salvage reports %v, want one corrupt region at segment 1", corrupt)
	}

	fr, err := NewFrameReader(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.Next(); err != nil {
		t.Fatalf("segment 0: %v", err)
	}
	if _, _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment 1 claiming rawLen beyond the segment size: %v, want ErrCorrupt", err)
	}
}

// TestSalvageOverlongClaimCause: a record at the expected boundary that
// claims more bytes than the input holds is truncation only when the
// rescan reaches end of input. When it finds a later record, the damage
// is in-stream corruption.
func TestSalvageOverlongClaimCause(t *testing.T) {
	data, off, _ := buildSalvageStream(4)
	// Frame 2's header: marker, then one-byte index, rawLen and compLen
	// varints, then the CRC.
	compLenAt := off[2] + 3
	if rest := len(data) - (compLenAt + 5); rest >= 0x7f {
		t.Fatalf("%d bytes follow frame 2's header; a one-byte claim cannot exceed them", rest)
	}
	overlong := append([]byte(nil), data...)
	overlong[compLenAt] = 0x7f

	frames, corrupt, trailer, err := drainSalvage(t, overlong)
	if err != nil || trailer == nil {
		t.Fatalf("trailer %v, err %v: the rescan should reach frame 3 and the trailer", trailer, err)
	}
	if len(frames) != 3 || frames[2].Index != 3 {
		t.Fatalf("delivered %d frames, want segments 0, 1 and 3", len(frames))
	}
	if len(corrupt) != 1 || corrupt[0].Index != 2 {
		t.Fatalf("reports %v, want one region at segment 2", corrupt)
	}
	if cause := corrupt[0].Err; !errors.Is(cause, ErrCorrupt) || errors.Is(cause, ErrTruncated) {
		t.Fatalf("cause %v: in-stream damage reported as truncation", cause)
	}

	// The same claim with nothing intact behind it is a cut tail.
	_, corrupt, _, err = drainSalvage(t, overlong[:off[3]-10])
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("cut stream ended with %v, want ErrTruncated", err)
	}
	if len(corrupt) != 1 || !errors.Is(corrupt[0].Err, ErrTruncated) {
		t.Fatalf("cut stream reports %v, want one truncated region", corrupt)
	}
}

// TestSalvageRescanAllocatesNothingPerCandidate rescans through a
// damaged 64 KiB frame: one of zero bytes, where every byte is a trailer
// candidate, and one of random bytes. The rejected candidates must cost
// no allocation, so a whole decode allocates a fixed handful of times.
func TestSalvageRescanAllocatesNothingPerCandidate(t *testing.T) {
	random := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(random)
	for name, container := range map[string][]byte{"zeros": make([]byte, 64<<10), "random": random} {
		out := AppendStreamHeader(nil, 64<<10)
		out = AppendSegmentFrame(out, 0, 100, []byte("intact"))
		damaged := len(out)
		out = AppendSegmentFrame(out, 1, 64<<10, container)
		out = AppendSegmentFrame(out, 2, 100, []byte("intact"))
		out = AppendStreamTrailer(out, &StreamTrailer{Segments: 3, TotalLen: 200 + 64<<10})
		out[damaged+6] ^= 0xff // a CRC byte: the rescan walks the whole container

		candidates := 0
		for _, b := range container {
			if b <= frameMarkerParity {
				candidates++
			}
		}
		decode := func() {
			fr, err := NewFrameReaderSalvage(bytes.NewReader(out))
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, tr, err := fr.Next()
				var cse *CorruptSegmentError
				if tr != nil || (err != nil && !errors.As(err, &cse)) {
					return
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, decode); allocs > 64 {
			t.Errorf("%s: decode allocated %.0f times over %d resync candidates", name, allocs, candidates)
		}
	}
}

// TestSalvageWindowGrowsWithInput: a header segment size of 0 leaves the
// frame bound at MaxSegmentLen, and one of 1 GiB sets it there, so a
// record claiming a 1 GiB container passes it. In both modes the window
// must still grow only as input arrives, and the stream end truncated.
func TestSalvageWindowGrowsWithInput(t *testing.T) {
	unsized := AppendStreamHeader(nil, 0)
	unsized = append(unsized, frameMarkerSegment, 0, 1)
	unsized = appendUvarintBytes(unsized, 1<<30) // compLen
	unsized = append(unsized, bytes.Repeat([]byte{0xaa}, 100)...)
	for name, stream := range map[string][]byte{"unsized": unsized, "1GiB-segments": hugeClaim()} {
		for mode, open := range map[string]func(io.Reader) (*FrameReader, error){
			"normal": NewFrameReader, "salvage": NewFrameReaderSalvage,
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fr, err := open(bytes.NewReader(stream))
			if err != nil {
				t.Fatalf("%s/%s: open: %v", name, mode, err)
			}
			regions := 0
			for {
				_, _, err = fr.Next()
				var cse *CorruptSegmentError
				if !errors.As(err, &cse) {
					break
				}
				regions++
			}
			runtime.ReadMemStats(&after)
			if want := map[string]int{"normal": 0, "salvage": 1}[mode]; !errors.Is(err, ErrTruncated) || regions != want {
				t.Errorf("%s/%s: got %v and %d regions, want ErrTruncated after %d", name, mode, err, regions, want)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Errorf("%s/%s: a 1 GiB claim in a %d-byte stream allocated %d bytes", name, mode, len(stream), n)
			}
		}
	}
}

// burstStream serves a framed stream of n 64 KiB segments with 4+2
// parity, built one group at a time so the test never holds it whole.
// The first eight containers are random, the rest zero bytes (cheap to
// checksum and to cover with parity); damage alters a frame's encoded
// bytes after its group's parity is computed.
type burstStream struct {
	n, next int
	rng     *rand.Rand
	damage  func(index int, frame []byte)
	pending []byte
	done    bool
}

func (s *burstStream) Read(p []byte) (int, error) {
	for len(s.pending) == 0 {
		if s.done {
			return 0, io.EOF
		}
		s.refill()
	}
	n := copy(p, s.pending)
	s.pending = s.pending[n:]
	return n, nil
}

func (s *burstStream) refill() {
	const seg = 64 << 10
	var out []byte
	if s.next == 0 {
		out = AppendStreamHeader(out, seg)
	}
	if s.next == s.n {
		s.done = true
		s.pending = AppendStreamTrailer(out, &StreamTrailer{Segments: s.n, TotalLen: s.n * seg})
		return
	}
	var group [][]byte
	for ; len(group) < 4 && s.next < s.n; s.next++ {
		container := make([]byte, seg)
		if s.next < 8 {
			s.rng.Read(container)
		}
		group = append(group, AppendSegmentFrame(nil, s.next, seg, container))
	}
	pfs, err := BuildParityFrames(s.next-len(group), group, 2)
	if err != nil {
		panic(err)
	}
	for i, f := range group {
		s.damage(s.next-len(group)+i, f)
		out = append(out, f...)
	}
	for _, pf := range pfs {
		out = AppendParityFrame(out, pf)
	}
	s.pending = out
}

// TestSalvageWindowStaysBounded repairs one 97-byte burst in frame 1 of
// a ~90 MiB stream (64 KiB segments, 4+2 parity). False resync
// candidates inside the damaged frame claim containers of up to the
// varint limit; bounded by the frame bound, the salvage window must stay
// within windowBound of the container bound (about twice it) instead of
// reading ahead through the rest of the stream.
func TestSalvageWindowStaysBounded(t *testing.T) {
	const segments = 1440
	src := &burstStream{n: segments, rng: rand.New(rand.NewSource(3)), damage: func(index int, frame []byte) {
		if index == 1 {
			for i := 1000; i < 1097; i++ {
				frame[i] ^= 0x5a
			}
		}
	}}
	fr, err := NewFrameReaderSalvage(src)
	if err != nil {
		t.Fatal(err)
	}
	fr.EnableRepair()
	delivered, repaired, peak := 0, 0, 0
	for {
		f, tr, err := fr.Next()
		// The window only grows while records are read, and goes back to
		// the pool at the trailer: its peak is its size after the last
		// record.
		peak = max(peak, cap(fr.win))
		var rse *RepairedSegmentError
		switch {
		case errors.As(err, &rse):
			repaired += len(rse.Frames)
			continue
		case err != nil:
			t.Fatalf("after %d segments: %v", delivered, err)
		}
		if tr != nil {
			break
		}
		if f.Index != delivered {
			t.Fatalf("delivered segment %d, want %d", f.Index, delivered)
		}
		delivered++
	}
	if delivered != segments || repaired != 1 {
		t.Fatalf("delivered %d of %d segments, repaired %d (want 1)", delivered, segments, repaired)
	}
	_, maxComp := frameBound(fr.SegmentSize)
	if bound := windowBound(maxComp); peak > bound {
		t.Fatalf("salvage window peaked at %d bytes, want at most %d (windowBound of the container bound %d)", peak, bound, maxComp)
	}
	t.Logf("salvage window peak %d bytes, container bound %d", peak, maxComp)
}

// IsSalvageable reports whether err is the kind of in-stream damage
// salvage mode can recover past (checksum mismatches, corrupt records,
// ordering violations, truncation) as opposed to I/O failures or API
// misuse.
func IsSalvageable(err error) bool {
	var cse *CorruptSegmentError
	return errors.As(err, &cse) ||
		errors.Is(err, ErrCorrupt) ||
		errors.Is(err, ErrFrameChecksum) ||
		errors.Is(err, ErrFrameOrder) ||
		errors.Is(err, ErrParityGeometry) ||
		errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrTruncated)
}
