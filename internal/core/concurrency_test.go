package core

import (
	"bytes"
	"sync"
	"testing"

	"culzss/internal/codec"
	"culzss/internal/datasets"
)

// TestConcurrentCompressDecompress hammers the API from many goroutines:
// the library must be safe for concurrent use with independent buffers
// (the gateway example depends on it).
func TestConcurrentCompressDecompress(t *testing.T) {
	inputs := [][]byte{
		datasets.CFiles(32<<10, 1),
		datasets.DEMap(32<<10, 2),
		datasets.HighlyCompressible(32<<10, 3),
		datasets.Dictionary(32<<10, 4),
	}
	names := []string{"v1", "v2", "cpu", "pthread", codec.Auto}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			input := inputs[w%len(inputs)]
			name := names[w%len(names)]
			for rep := 0; rep < 3; rep++ {
				comp, _, err := Compress(input, name, Params{})
				if err != nil {
					errs <- err
					return
				}
				got, err := Decompress(comp, Params{})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, input) {
					errs <- errMismatch
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent round trip mismatch" }

// TestDeterministicOutput: compressing the same input twice must produce
// identical containers (no time- or scheduling-dependent bytes).
func TestDeterministicOutput(t *testing.T) {
	input := datasets.KernelTarball(64<<10, 5)
	for _, name := range []string{"v1", "v2", "cpu", "pthread"} {
		a, _, err := Compress(input, name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Compress(input, name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: non-deterministic container", name)
		}
	}
}
