package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/format"
)

// salvageGoldenDigests pins what salvage and repair decode decide on
// damaged Writer streams: per stream configuration (codec, segment size,
// parity), the SHA-256 over every damage case decoded with and without
// repair. The digest covers each delivered frame (index, raw length,
// container bytes), each notice (kind, index, offset, skipped bytes,
// repaired frames), every RepairSink call, the trailer and whether the
// stream ended truncated. It leaves error text out, so a clearer cause
// does not move it; a change to what the reader delivers does.
var salvageGoldenDigests = map[string]string{
	"v1/1KiB/none":   "f74b7ce28d14fecfe27eaedbf1728cb96f1f44ec1d642e51246fc538843b3b63",
	"v1/1KiB/4+1":    "96f2de5455838da2f5771cac0ca0f1bc659069a9d2d8ac3b7c5f3dbeceed6cd9",
	"v1/1KiB/4+2":    "2a98b8d4cd08e57e7bc108a70cfa5aef092fb4c976118c95c6d35ada181e5476",
	"v1/64KiB/none":  "e2c318224aca22f2aff85c7cf769f1105d4e21cfa8f4bdedf1e5214a6356d684",
	"v1/64KiB/4+1":   "68defe83d991bf3c3a8c9a5ba789b0a7fad666e44600be71441bf9d1c5dbd33a",
	"v1/64KiB/4+2":   "f21f1b958bd79370f57d6f132caf515b7fef7c454ea38bcd08398ffc117072c5",
	"raw/1KiB/none":  "ccd9c8bc93034d8e5f23c380c4cea01c2d13813dc567b8ff5091f02541f83975",
	"raw/1KiB/4+1":   "971a0b345b9212ebe41f791668dff36dab9d107f78c1e8f10682bf37e4e5f330",
	"raw/1KiB/4+2":   "0adec53de319ae51e53ebd0d2c37d355c80eab192a6315a2c2fed6b739a254cc",
	"raw/64KiB/none": "71b922a1f79fe72c734f970c37cc0384364144764849d35b6637b5bc0637cd42",
	"raw/64KiB/4+1":  "7427c3471f43b5bdef6a8fe4d3e3bb59ba7a7690e3f7ecda996c365ae9d30179",
	"raw/64KiB/4+2":  "359abac6e7dd69103b22e9f8eede195e2586989d11debf17f4171150e009efe8",
}

// wireRecord locates one record of a framed stream: its kind (the
// marker byte), its extent and, for a segment frame, where each header
// field starts.
type wireRecord struct {
	kind      byte
	off, end  int
	fields    []int // segment frame: index, rawLen, compLen and CRC offsets
	container int   // segment frame: first container byte
}

// wireRecords walks an undamaged framed stream record by record.
func wireRecords(t *testing.T, wire []byte) []wireRecord {
	t.Helper()
	p := len(format.StreamMagic) + 2
	uv := func() int {
		v, n := binary.Uvarint(wire[p:])
		if n <= 0 {
			t.Fatalf("bad varint at offset %d", p)
		}
		p += n
		return int(v)
	}
	uv() // segment size
	var recs []wireRecord
	for p < len(wire) {
		r := wireRecord{kind: wire[p], off: p}
		p++
		switch r.kind {
		case 0x01:
			var compLen int
			for i := 0; i < 3; i++ {
				r.fields = append(r.fields, p)
				compLen = uv()
			}
			r.fields = append(r.fields, p)
			r.container = p + 4
			p += 4 + compLen
		case 0x02:
			uv()
			k := uv()
			uv()
			uv()
			shardLen := uv()
			for i := 0; i < k; i++ {
				uv()
			}
			p += 4 + shardLen
		case 0x00:
			uv()
			uv()
			p += 4
		default:
			t.Fatalf("unknown marker %#x at offset %d", r.kind, r.off)
		}
		r.end = p
		recs = append(recs, r)
	}
	return recs
}

// salvageDamage is one damaged copy of a stream.
type salvageDamage struct {
	name string
	wire []byte
}

// salvageDamages derives the seeded damage cases of one stream: bursts
// of 1, 97 and 4096 bytes inside a container, starting at a record
// header field and inside a parity frame, a cut tail and the excision of
// one whole segment frame. A burst XORs every byte it covers with a
// nonzero value, so each covered byte really changes.
//
// A one-byte burst never lands on the rawLen varint alone: rawLen is
// outside the frame CRC, so such a flip yields a record that still
// checksums but claims a different length. Above the header's segment
// size that is the one decision the frame bound changes on purpose
// (TestSalvageRejectsRawLenBeyondSegmentSize in internal/format covers
// it).
func salvageDamages(t *testing.T, wire []byte, seed int64) []salvageDamage {
	recs := wireRecords(t, wire)
	var segs, pars []wireRecord
	for _, r := range recs {
		switch r.kind {
		case 0x01:
			segs = append(segs, r)
		case 0x02:
			pars = append(pars, r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	burst := func(at, n int) []byte {
		d := append([]byte(nil), wire...)
		for i := at; i < at+n && i < len(d); i++ {
			d[i] ^= byte(1 + rng.Intn(255))
		}
		return d
	}
	out := []salvageDamage{{"clean", wire}}
	for _, n := range []int{1, 97, 4096} {
		for v := 0; v < 3; v++ {
			s := segs[rng.Intn(len(segs))]
			at := s.container + rng.Intn(s.end-s.container)
			out = append(out, salvageDamage{fmt.Sprintf("container/%d/%d@%d", n, v, at), burst(at, n)})

			s = segs[rng.Intn(len(segs))]
			starts := []int{s.off, s.fields[0], s.fields[2], s.fields[3]} // marker, index, compLen, CRC
			if n > 1 {
				starts = append(starts, s.fields[1]) // rawLen, with the CRC covered too
			}
			at = starts[rng.Intn(len(starts))]
			if at == s.fields[2] {
				at += rng.Intn(s.fields[3] - s.fields[2]) // any byte of the compLen varint
			}
			out = append(out, salvageDamage{fmt.Sprintf("header/%d/%d@%d", n, v, at), burst(at, n)})

			if len(pars) > 0 {
				p := pars[rng.Intn(len(pars))]
				at = p.off + rng.Intn(p.end-p.off)
				out = append(out, salvageDamage{fmt.Sprintf("parity/%d/%d@%d", n, v, at), burst(at, n)})
			}
		}
	}
	for v := 0; v < 2; v++ {
		cut := recs[0].off + rng.Intn(len(wire)-recs[0].off)
		out = append(out, salvageDamage{fmt.Sprintf("cut@%d", cut), wire[:cut]})
	}
	s := segs[len(segs)/2]
	excised := append(append([]byte(nil), wire[:s.off]...), wire[s.end:]...)
	out = append(out, salvageDamage{fmt.Sprintf("excise@%d", s.off), excised})
	return out
}

// digestSalvage decodes wire through a salvage FrameReader, repair mode
// optional, and hashes every decision the reader makes into h.
func digestSalvage(t *testing.T, h hash.Hash, wire []byte, repair bool) {
	t.Helper()
	num := func(tag string, vs ...int64) {
		h.Write([]byte(tag))
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	fr, err := format.NewFrameReaderSalvage(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if repair {
		fr.EnableRepair()
		fr.RepairSink = func(index int, off int64, encoded []byte) {
			num("sink", int64(index), off)
			writeRecord(h, encoded)
		}
	}
	for i := 0; ; i++ {
		if i > 1<<16 {
			t.Fatal("salvage decode did not terminate")
		}
		f, tr, err := fr.Next()
		var cse *format.CorruptSegmentError
		var rse *format.RepairedSegmentError
		switch {
		case errors.As(err, &cse):
			num("corrupt", int64(cse.Index), cse.Offset, cse.Skipped)
		case errors.As(err, &rse):
			num("repaired", int64(rse.Index), rse.Offset, rse.Skipped, int64(len(rse.Frames)))
			for _, x := range rse.Frames {
				num("", int64(x))
			}
		case err != nil:
			if errors.Is(err, format.ErrTruncated) {
				num("truncated")
			} else {
				num("failed")
			}
			return
		case tr != nil:
			num("trailer", int64(tr.Segments), int64(tr.TotalLen), int64(tr.Checksum))
			return
		default:
			num("frame", int64(f.Index), int64(f.RawLen))
			writeRecord(h, f.Container)
		}
	}
}

func TestSalvageGoldenDecisions(t *testing.T) {
	seed := int64(0)
	for _, codecName := range []string{"v1", "raw"} {
		for _, seg := range []int{1 << 10, 64 << 10} {
			// About nine and a half segments: a partial last segment and,
			// under 4+M parity, a short final group.
			in := datasets.All()[0].Gen(9*seg+seg/2, 3)
			for _, par := range []ParityConfig{{}, {K: 4, M: 1}, {K: 4, M: 2}} {
				pname := "none"
				if par.K > 0 {
					pname = fmt.Sprintf("%d+%d", par.K, par.M)
				}
				label := fmt.Sprintf("%s/%dKiB/%s", codecName, seg>>10, pname)
				t.Run(label, func(t *testing.T) {
					var wire bytes.Buffer
					w := NewWriterOptions(&wire, Params{}, StreamOptions{SegmentSize: seg, Codec: codecName, Parity: par})
					if _, err := w.Write(in); err != nil {
						t.Fatalf("write: %v", err)
					}
					if err := w.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					h := sha256.New()
					seed++
					for _, d := range salvageDamages(t, wire.Bytes(), seed) {
						writeRecord(h, []byte(d.name))
						digestSalvage(t, h, d.wire, false)
						digestSalvage(t, h, d.wire, true)
					}
					got := hex.EncodeToString(h.Sum(nil))
					if want := salvageGoldenDigests[label]; got != want {
						t.Errorf("salvage decisions: sha256 %s, golden %s", got, want)
					}
				})
			}
		}
	}
}
