package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"culzss/internal/codec"
	"culzss/internal/datasets"
)

// goldenDigests pins the exact wire bytes of every registered codec and
// of the adaptive selector: per name, the SHA-256 over the one-shot
// containers of goldenInputs, and over their framed streams (16 KiB
// segments, 4+2 parity). The round-trip suites only prove that output
// decodes; these digests prove that a refactor of the routing writes the
// same bytes as before. A deliberate format change regenerates them and
// says so.
var goldenDigests = map[string]struct{ oneShot, framed string }{
	"cpu": {
		"6a8e1194355370ac5749bc8f3352ce359d902bf9f8b912f0aa8791c7fcd5501b",
		"fa2c00dddc3a7423f4915852225ff27cdabdb223b5385cac9347f5e26648bb36",
	},
	"pthread": {
		"552bfd2130a8cca80ce138b2475e22f238ef0c2b7cf9ee2fe766a1eaf501a9df",
		"6089d852a9cffcc321995860bb0ca2c1f0d20c3dbb181a70736a9473e5c17eaf",
	},
	"v1": {
		"e07c58fc92423238f2ef50ae2c3a6a401be0f187472164c4276b1bcbb8f20e3a",
		"8a228d26bc4cab48791033aff65354a304eb2d345198993696c8409b21d2dbe5",
	},
	"v2": {
		"49ce584d686195bb448438c45252dc0bdd19950a5d6042c64a2e47a930469e29",
		"c7a3f3055c69b60389b236eaeb43ac0d8909df24c452b37894d0f03b4f60f8b9",
	},
	"bzip2": {
		"36c7e14c9e321440e6a25567129badf6caa0a68df46d9ede6583126ca0a94154",
		"0fa3727d79b1a31dad8fcb7d80a091acae3c4ddbda2572c29167788ec4ca30d6",
	},
	"raw": {
		"627a557af9330e7d315bb23b6afb1843953d4a12b9b3b80c6581a260d62c8689",
		"e6574df06ab5590542b770b6da6fe3cd083d9918d6626aee5721ae65ad765e98",
	},
	"auto": {
		"c9e3a8bd4cb5d0dc16739b86fa1999d507ef1f6e723ed13d06cfc32594326940",
		"f524872d7e7aed0552000b4b223fa8adf9a6ef4695be009f4a8602fb0f739bbd",
	},
}

// goldenInputs are the five paper datasets plus one incompressible
// buffer, none over 64 KiB. The sizes leave a partial last segment and a
// partial parity group in the framed streams.
func goldenInputs() [][]byte {
	var in [][]byte
	for i, g := range datasets.All() {
		in = append(in, g.Gen(60<<10-1000*i, int64(11+i)))
	}
	random := make([]byte, 40<<10)
	rand.New(rand.NewSource(5)).Read(random)
	return append(in, random)
}

// writeRecord hashes one length-prefixed record, so the digest of a
// sequence cannot collide with a differently split one.
func writeRecord(h hash.Hash, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

func TestGoldenWireBytes(t *testing.T) {
	inputs := goldenInputs()
	names := append(codec.Names(), codec.Auto)
	if len(names) != len(goldenDigests) {
		t.Fatalf("registry has %v (+%q); golden table has %d entries", codec.Names(), codec.Auto, len(goldenDigests))
	}
	// An empty name means auto, one-shot and framed alike.
	for _, name := range append(names, "") {
		label, want := name, goldenDigests[name]
		if name == "" {
			label, want = "default", goldenDigests[codec.Auto]
		}
		t.Run(label, func(t *testing.T) {
			if want.oneShot == "" {
				t.Fatalf("no golden digests for codec %q", name)
			}
			oneShot, framed := sha256.New(), sha256.New()
			for i, in := range inputs {
				c, _, err := Compress(in, name, Params{})
				if err != nil {
					t.Fatalf("input %d: compress: %v", i, err)
				}
				writeRecord(oneShot, c)

				var wire bytes.Buffer
				w := NewWriterOptions(&wire, Params{}, StreamOptions{
					SegmentSize: 16 << 10, Codec: name, Parity: ParityConfig{K: 4, M: 2},
				})
				if _, err := w.Write(in); err != nil {
					t.Fatalf("input %d: stream write: %v", i, err)
				}
				if err := w.Close(); err != nil {
					t.Fatalf("input %d: stream close: %v", i, err)
				}
				writeRecord(framed, wire.Bytes())
			}
			if got := hex.EncodeToString(oneShot.Sum(nil)); got != want.oneShot {
				t.Errorf("one-shot containers: sha256 %s, golden %s", got, want.oneShot)
			}
			if got := hex.EncodeToString(framed.Sum(nil)); got != want.framed {
				t.Errorf("framed streams: sha256 %s, golden %s", got, want.framed)
			}
		})
	}
}
