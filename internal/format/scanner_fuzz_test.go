package format

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// FuzzBoundaryScanner checks that the write-side scanner and the strict
// reader agree on where a stream's records end. It builds a well-formed
// stream, with parity groups of k frames when k > 0, cuts it at any
// byte, and feeds the prefix to a scanner in random splits. The scanner
// must accept every prefix, and its GoodOffset must be the strict
// FrameReader's Offset after the last record that reader accepted.
func FuzzBoundaryScanner(f *testing.F) {
	f.Add([]byte("a payload cut into a few segments of a framed stream"), uint8(3), uint8(0), uint8(1), uint32(40), int64(1))
	f.Add(bytes.Repeat([]byte{0x00, 0x01, 0x02}, 200), uint8(7), uint8(3), uint8(2), uint32(333), int64(2))
	f.Add([]byte("parity"), uint8(2), uint8(2), uint8(1), uint32(1<<20), int64(3))
	f.Add([]byte{}, uint8(0), uint8(1), uint8(1), uint32(9), int64(4))
	f.Fuzz(func(t *testing.T, payload []byte, nSeg, k, m uint8, cut uint32, seed int64) {
		payload = payload[:min(len(payload), 4<<10)]
		n := int(nSeg)%8 + 1
		segs := make([][2][]byte, n)
		for i := range segs {
			piece := payload[i*len(payload)/n : (i+1)*len(payload)/n]
			segs[i] = [2][]byte{piece, piece}
		}
		var stream []byte
		if k%5 == 0 {
			stream = buildStream(1<<16, segs)
		} else {
			stream, _, _ = buildParityStreamOffs(t, segs, int(k%5), int(m%3)+1)
		}
		stream = stream[:int(cut)%(len(stream)+1)]

		s := NewBoundaryScanner()
		rng := rand.New(rand.NewSource(seed))
		for rest := stream; len(rest) > 0; {
			step := 1 + rng.Intn(min(len(rest), 97))
			if n, err := s.Write(rest[:step]); n != step || err != nil {
				t.Fatalf("Write of %d bytes at offset %d = (%d, %v)", step, s.Offset(), n, err)
			}
			rest = rest[step:]
		}

		want := int64(0)
		if fr, err := NewFrameReader(bytes.NewReader(stream)); err == nil {
			for {
				_, trailer, err := fr.Next()
				if err != nil || trailer != nil {
					break
				}
			}
			want = fr.Offset()
		}
		if s.GoodOffset() != want || s.Offset() != int64(len(stream)) {
			t.Fatalf("%d-byte prefix: scanner good %d, offset %d; strict reader's offset %d",
				len(stream), s.GoodOffset(), s.Offset(), want)
		}
	})
}

// TestBoundaryScannerFrameBound: a fresh scanner bounds records by the
// frame bound of its header's segment size, and a resumed one by that of
// the segment size it is given, as the reader does.
func TestBoundaryScannerFrameBound(t *testing.T) {
	_, maxComp := frameBound(4096)
	header := AppendStreamHeader(nil, 4096)
	stream := AppendSegmentFrame(header, 0, 4096, make([]byte, maxComp+1))

	if _, err := NewBoundaryScanner().Write(stream); !errors.Is(err, ErrCorrupt) {
		t.Errorf("fresh scanner, compLen %d beyond the bound %d: %v, want ErrCorrupt", maxComp+1, maxComp, err)
	}
	resumed := ResumeBoundaryScanner(int64(len(header)), 0, 4096)
	if _, err := resumed.Write(stream[len(header):]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("resumed scanner, compLen %d beyond the bound %d: %v, want ErrCorrupt", maxComp+1, maxComp, err)
	}
	fr, err := NewFrameReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("reader, compLen %d beyond the bound %d: %v, want ErrCorrupt", maxComp+1, maxComp, err)
	}
}
