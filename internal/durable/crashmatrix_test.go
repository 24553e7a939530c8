package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/faults"
)

// TestCrashMatrix is the central durability proof: interrupt a reference
// stream at every frame boundary and at sampled intra-frame offsets,
// resume each wreck, and require the completed file to be byte-identical
// to the uninterrupted reference — trailer CRC included — and to decode
// back to the original input.
func TestCrashMatrix(t *testing.T) {
	const segSize = 8 << 10
	input := datasets.CFiles(48<<10, 77) // 6 full segments
	p := core.Params{}
	ref := refStream(t, input, p, segSize)
	bounds := boundaries(t, ref)

	// Every record boundary, plus three samples inside each gap: just
	// past the previous boundary, mid-record, and one byte short of the
	// next.
	cuts := map[int64]bool{0: true}
	prev := int64(0)
	for _, b := range bounds {
		cuts[b] = true
		if gap := b - prev; gap > 2 {
			cuts[prev+1] = true
			cuts[prev+gap/2] = true
			cuts[b-1] = true
		}
		prev = b
	}

	dir := t.TempDir()
	n := 0
	for cut := range cuts {
		n++
		path := filepath.Join(dir, fmt.Sprintf("m%d.clzs", n))
		if err := os.WriteFile(PartialPath(path), ref[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The segment size in Options only matters for headerless
		// restarts; header-bearing partials override it from the header.
		w, rep, err := Resume(path, p, Options{Stream: core.StreamOptions{Codec: "v1", SegmentSize: segSize}})
		if err != nil {
			t.Fatalf("cut %d: Resume: %v", cut, err)
		}
		if w != nil {
			if _, err := w.Write(input[rep.TotalLen:]); err != nil {
				t.Fatalf("cut %d: Write: %v", cut, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("cut %d: Close: %v", cut, err)
			}
		} else if !rep.Complete {
			t.Fatalf("cut %d: no writer for an incomplete stream", cut)
		}
		final, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !bytes.Equal(final, ref) {
			t.Fatalf("cut %d: resumed stream differs from reference (%d vs %d bytes)",
				cut, len(final), len(ref))
		}
		if got := decodeFile(t, path, p); !bytes.Equal(got, input) {
			t.Fatalf("cut %d: decoded plaintext differs from input", cut)
		}
	}
	t.Logf("crash matrix: %d interruption points verified", n)
}

// TestCrashMatrixInjectedTornWrites runs the same equivalence through the
// fault layer: instead of hand-truncating files, the injector tears the
// durable writer's own output mid-flight, and Resume must still complete
// an identical stream.
func TestCrashMatrixInjectedTornWrites(t *testing.T) {
	const segSize = 8 << 10
	input := datasets.CFiles(48<<10, 77)
	p := core.Params{}
	ref := refStream(t, input, p, segSize)

	cases := []struct {
		name string
		arm  func(*faults.Injector) *faults.Injector
	}{
		{"torn-early", func(in *faults.Injector) *faults.Injector { return in.TornWriteAt(int64(len(ref)) / 5) }},
		{"torn-mid", func(in *faults.Injector) *faults.Injector { return in.TornWriteAt(int64(len(ref)) / 2) }},
		{"torn-late", func(in *faults.Injector) *faults.Injector { return in.TornWriteAt(int64(len(ref)) - 9) }},
		{"err-after-budget", func(in *faults.Injector) *faults.Injector { return in.ErrAfterNBytes(int64(len(ref)) / 3) }},
		{"torn-header", func(in *faults.Injector) *faults.Injector { return in.TornWriteAt(3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.clzs")
			pi := p
			pi.Injector = tc.arm(faults.New(7))
			w, err := Create(path, pi, Options{Stream: core.StreamOptions{Codec: "v1", SegmentSize: segSize}})
			if err != nil {
				t.Fatal(err)
			}
			_, werr := w.Write(input)
			cerr := w.Close()
			if werr == nil && cerr == nil {
				t.Fatal("injected write fault never surfaced")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("final path appeared despite the crash")
			}

			rw, rep, err := Resume(path, p, Options{Stream: core.StreamOptions{Codec: "v1", SegmentSize: segSize}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rw.Write(input[rep.TotalLen:]); err != nil {
				t.Fatal(err)
			}
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(final, ref) {
				t.Fatalf("resumed stream differs from reference (%d vs %d bytes)",
					len(final), len(ref))
			}
			if got := decodeFile(t, path, p); !bytes.Equal(got, input) {
				t.Fatal("decoded plaintext differs from input")
			}
		})
	}
}

// TestDoubleCrashResume interrupts the stream, resumes, interrupts the
// resumed run too, and resumes again — commit watermarks must survive
// stacking.
func TestDoubleCrashResume(t *testing.T) {
	const segSize = 8 << 10
	input := datasets.CFiles(48<<10, 77)
	p := core.Params{}
	ref := refStream(t, input, p, segSize)
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")

	// Crash 1: torn write a third of the way in.
	p1 := p
	p1.Injector = faults.New(7).TornWriteAt(int64(len(ref)) / 3)
	w, err := Create(path, p1, Options{Stream: core.StreamOptions{Codec: "v1", SegmentSize: segSize}})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = w.Write(input)
	_ = w.Close()

	// Crash 2: resume, then die again two thirds in (wrapper offsets
	// count from the resume point).
	p2 := p
	p2.Injector = faults.New(7).TornWriteAt(int64(len(ref)) / 3)
	rw, rep, err := Resume(path, p2, Options{Stream: core.StreamOptions{Codec: "v1"}})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = rw.Write(input[rep.TotalLen:])
	_ = rw.Close()

	// Final resume with a healthy environment.
	rw2, rep2, err := Resume(path, p, Options{Stream: core.StreamOptions{Codec: "v1"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.NextIndex < rep.NextIndex {
		t.Fatalf("second resume lost progress: %d < %d", rep2.NextIndex, rep.NextIndex)
	}
	if _, err := rw2.Write(input[rep2.TotalLen:]); err != nil {
		t.Fatal(err)
	}
	if err := rw2.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, ref) {
		t.Fatal("twice-resumed stream differs from reference")
	}
}
