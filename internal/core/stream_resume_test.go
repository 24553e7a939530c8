package core

import (
	"bytes"
	"io"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/format"
)

// frameBoundaries walks a framed stream and returns the byte offsets just
// past the header and past each segment frame (the positions a resumed
// writer can append into).
func frameBoundaries(t *testing.T, stream []byte) []int64 {
	t.Helper()
	fr, err := format.NewFrameReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{fr.Offset()}
	for {
		_, trailer, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if trailer != nil {
			return bounds
		}
		bounds = append(bounds, fr.Offset())
	}
}

func TestWriterResumeByteIdentical(t *testing.T) {
	const segSize = 16 << 10
	input := datasets.CFiles(100<<10, 17) // 7 segments, last partial
	p := Params{HostWorkers: 2}

	var ref bytes.Buffer
	w := NewWriterOptions(&ref, p, StreamOptions{Codec: "v1", SegmentSize: segSize})
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	bounds := frameBoundaries(t, ref.Bytes())
	for k := 0; k < len(bounds); k++ {
		cut := bounds[k]
		done := k * segSize // plaintext bytes covered by the first k frames
		if done > len(input) {
			done = len(input) // the final frame is partial
		}
		var out bytes.Buffer
		out.Write(ref.Bytes()[:cut])
		rw := NewWriterOptions(&out, p, StreamOptions{
			Codec:       "v1",
			SegmentSize: segSize,
			Resume: &ResumeState{
				NextIndex: k,
				Total:     done,
				CRC:       format.Checksum32(input[:done]),
			},
		})
		if _, err := rw.Write(input[done:]); err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		if err := rw.Close(); err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		if !bytes.Equal(out.Bytes(), ref.Bytes()) {
			t.Fatalf("boundary %d: resumed stream differs from reference (%d vs %d bytes)",
				k, out.Len(), ref.Len())
		}
		if st := rw.Stats(); st.Resumed != k {
			t.Fatalf("boundary %d: Stats().Resumed = %d, want %d", k, st.Resumed, k)
		}

		// The resumed stream decodes back to the full input.
		r, err := NewReader(bytes.NewReader(out.Bytes()), p)
		if err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		if !bytes.Equal(got, input) {
			t.Fatalf("boundary %d: decoded plaintext differs", k)
		}
	}
}

func TestWriterResumeStatsFresh(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{}, StreamOptions{Codec: "v1", SegmentSize: 8 << 10})
	if _, err := w.Write(datasets.CFiles(20<<10, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Resumed != 0 || st.Committed != 0 {
		t.Fatalf("fresh stream stats: Resumed=%d Committed=%d, want 0 0", st.Resumed, st.Committed)
	}
}
