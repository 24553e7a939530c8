package culzss

import (
	"bytes"
	stdbzip2 "compress/bzip2"
	"io"
	"testing"

	"culzss/internal/bzip2"
	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/gpu"
)

// TestEndToEndEveryVersionEveryDataset is the repository-wide integration
// sweep: every codec compresses every dataset, every container
// opens through the codec-dispatching public API, and the bytes survive.
func TestEndToEndEveryVersionEveryDataset(t *testing.T) {
	const n = 64 << 10
	names := append(codec.Names(), codec.Auto)
	for _, ds := range datasets.All() {
		data := ds.Gen(n, 4242)
		for _, name := range names {
			comp, _, err := core.Compress(data, name, core.Params{})
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, name, err)
			}
			got, err := core.Decompress(comp, core.Params{})
			if err != nil {
				t.Fatalf("%s/%s: decompress: %v", ds.Name, name, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%s: round trip mismatch", ds.Name, name)
			}
		}
	}
}

// TestCrossImplementationAgreement pins the wire-level relationships the
// repository guarantees between implementations.
func TestCrossImplementationAgreement(t *testing.T) {
	data := datasets.KernelTarball(96<<10, 777)

	// V1 kernel == pure-GPU hybrid == multi-GPU == streamed: identical
	// containers.
	base, _, err := gpu.CompressV1(data, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, _, err := gpu.CompressV1Hybrid(data, gpu.Options{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := gpu.CompressV1MultiGPU(data, gpu.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _, err := gpu.CompressV1Streamed(data, gpu.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string][]byte{"hybrid": hybrid, "multi": multi, "streamed": streamed} {
		if !bytes.Equal(base, c) {
			t.Errorf("%s container differs from plain V1", name)
		}
	}

	// V2 host post == V2 GPU post.
	v2h, _, err := gpu.CompressV2(data, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v2g, _, err := gpu.CompressV2GPUPost(data, gpu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2h, v2g) {
		t.Error("V2 GPU post-pass container differs from host post-pass")
	}
}

// TestBZip2FamilyConsistency ties the bzip2 baseline's container to its
// .bz2 writer: both serialize the same stages, and the .bz2 stream must
// decode with the standard library.
func TestBZip2FamilyConsistency(t *testing.T) {
	data := datasets.CFiles(256<<10, 31337)

	internal, err := bzip2.Compress(data, bzip2.Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := bzip2.Decompress(internal, 0)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("internal container round trip failed: %v", err)
	}

	var bz bytes.Buffer
	if err := bzip2.EncodeBZ2(&bz, data, 9); err != nil {
		t.Fatal(err)
	}
	bzLen := bz.Len() // the reader below drains the buffer
	std, err := io.ReadAll(stdbzip2.NewReader(&bz))
	if err != nil || !bytes.Equal(std, data) {
		t.Fatalf(".bz2 interchange round trip failed: %v", err)
	}

	// The two serialisations of the same pipeline should land within a
	// few percent of each other in size.
	a, b := float64(len(internal)), float64(bzLen)
	if a/b > 1.15 || b/a > 1.15 {
		t.Errorf("container (%d) and .bz2 (%d) sizes diverge beyond framing differences", len(internal), bzLen)
	}
}
