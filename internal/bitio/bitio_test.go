package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteBitPacksMSBFirst(t *testing.T) {
	w := NewWriter(0)
	// 1010 1100 -> 0xAC
	for _, b := range []int{1, 0, 1, 0, 1, 1, 0, 0} {
		w.WriteBit(b)
	}
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0xAC}) {
		t.Fatalf("got %x, want ac", got)
	}
}

func TestWriteBitsValue(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x5, 3) // 101
	w.WriteBits(0x3, 2) // 11
	w.WriteBits(0x0, 3) // 000
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0xB8}) { // 1011 1000
		t.Fatalf("got %x, want b8", got)
	}
}

func TestBytesPadsPartialByte(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x7, 3) // 111 -> padded to 1110 0000
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0xE0}) {
		t.Fatalf("got %x, want e0", got)
	}
}

func TestLen(t *testing.T) {
	w := NewWriter(0)
	if w.Len() != 0 {
		t.Fatalf("zero writer has nonzero length")
	}
	w.WriteBits(0x1FF, 9)
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1 full byte", w.Len())
	}
}

func TestWriteByteInterface(t *testing.T) {
	w := NewWriter(0)
	if err := w.WriteByte(0x42); err != nil {
		t.Fatal(err)
	}
	if got := w.Bytes(); !bytes.Equal(got, []byte{0x42}) {
		t.Fatalf("got %x", got)
	}
}

func TestReaderRoundTripBits(t *testing.T) {
	w := NewWriter(0)
	vals := []struct {
		v uint64
		n uint
	}{{1, 1}, {0, 1}, {0xAB, 8}, {0x1234, 13}, {7, 3}, {0xFFFFFFFF, 32}, {0, 0}}
	for _, x := range vals {
		w.WriteBits(x.v&(1<<x.n-1), x.n)
	}
	r := NewReader(w.Bytes())
	for i, x := range vals {
		got, err := r.ReadBits(x.n)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		want := x.v & (1<<x.n - 1)
		if got != want {
			t.Fatalf("field %d: got %x want %x", i, got, want)
		}
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if _, err := r.ReadBits(4); err != ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReaderEOFMidGroup(t *testing.T) {
	r := NewReader([]byte{0xAA})
	if _, err := r.ReadBits(12); err != ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xDEAD, 16)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.WriteBits(0x01, 8)
	if got := w.Bytes(); !bytes.Equal(got, []byte{1}) {
		t.Fatalf("got %x after reset", got)
	}
}

func TestWidth(t *testing.T) {
	cases := []struct {
		n    int
		want uint
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {128, 7}, {129, 8}, {256, 8}, {257, 9}, {4096, 12}}
	for _, c := range cases {
		if got := Width(c.n); got != c.want {
			t.Errorf("Width(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWidthCoversRange(t *testing.T) {
	// Property: every value in [0, n) fits in Width(n) bits and survives a
	// write/read round trip at that width.
	for _, n := range []int{1, 2, 3, 7, 8, 9, 127, 128, 129, 255, 256} {
		wdt := Width(n)
		w := NewWriter(0)
		for v := 0; v < n; v++ {
			w.WriteBits(uint64(v), wdt)
		}
		r := NewReader(w.Bytes())
		for v := 0; v < n; v++ {
			got, err := r.ReadBits(wdt)
			if err != nil {
				t.Fatalf("n=%d v=%d: %v", n, v, err)
			}
			if got != uint64(v) {
				t.Fatalf("n=%d: got %d want %d", n, got, v)
			}
		}
	}
}

func TestQuickRoundTripBytes(t *testing.T) {
	f := func(data []byte) bool {
		w := NewWriter(len(data))
		for _, b := range data {
			w.WriteBits(uint64(b), 8)
		}
		r := NewReader(w.Bytes())
		for _, b := range data {
			got, err := r.ReadBits(8)
			if err != nil || byte(got) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripMixedWidths(t *testing.T) {
	// Property: arbitrary (value, width) sequences round-trip.
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(64) + 1
		vals := make([]uint64, n)
		widths := make([]uint, n)
		w := NewWriter(0)
		for i := range vals {
			widths[i] = uint(rng.Intn(33))
			vals[i] = rng.Uint64() & (1<<widths[i] - 1)
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil {
				t.Fatalf("iter %d field %d: %v", iter, i, err)
			}
			if got != vals[i] {
				t.Fatalf("iter %d field %d: got %x want %x (width %d)", iter, i, got, vals[i], widths[i])
			}
		}
	}
}

func TestWriteBitsPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width > 64")
		}
	}()
	NewWriter(0).WriteBits(0, 65)
}
