package gpu

import (
	"bytes"
	"testing"

	"culzss/internal/cudasim"
	"culzss/internal/datasets"
)

// TestGPUPostIdenticalToHostPost pins the §VII GPU token-selection kernel
// to the serial host post-pass: byte-identical containers on every
// dataset flavour.
func TestGPUPostIdenticalToHostPost(t *testing.T) {
	for name, input := range map[string][]byte{
		"text":     datasets.CFiles(96<<10, 41),
		"demap":    datasets.DEMap(64<<10, 42),
		"periodic": datasets.HighlyCompressible(64<<10, 43),
		"dict":     datasets.Dictionary(64<<10, 44),
		"small":    []byte("tiny input"),
		"empty":    {},
		"odd":      datasets.CFiles(DefaultChunkSize+333, 45),
	} {
		host, _, err := CompressV2(input, Options{})
		if err != nil {
			t.Fatalf("%s: host: %v", name, err)
		}
		gpu, _, err := CompressV2GPUPost(input, Options{})
		if err != nil {
			t.Fatalf("%s: gpu: %v", name, err)
		}
		if !bytes.Equal(host, gpu) {
			t.Fatalf("%s: GPU post-pass container differs from host post-pass", name)
		}
		back, _, err := Decompress(gpu, Options{})
		if err != nil || !bytes.Equal(back, input) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
	}
}

// TestGPUPostShrinksHostTime verifies the point of the port: the serial
// host step shrinks to pure serialisation while kernel work grows.
func TestGPUPostShrinksHostTime(t *testing.T) {
	input := datasets.CFiles(512<<10, 46)
	_, host, err := CompressV2(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gpu, err := CompressV2GPUPost(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Launch.WarpCycles <= host.Launch.WarpCycles {
		t.Fatalf("selection rounds added no kernel work: %d vs %d",
			gpu.Launch.WarpCycles, host.Launch.WarpCycles)
	}
	// The D2H volume drops from 3 bytes/position to the selected tokens.
	if gpu.D2H >= host.D2H {
		t.Fatalf("D2H did not shrink: %v vs %v", gpu.D2H, host.D2H)
	}
}

// TestSelectChunkPositionsUnit checks the pointer-doubling reachability
// against a direct serial walk on crafted match arrays.
func TestSelectChunkPositionsUnit(t *testing.T) {
	cases := [][]uint16{
		{},
		{0},
		{0, 0, 0, 0},
		{5, 0, 0, 0, 0, 3, 0, 0},    // match at 0 jumps to 5, match at 5 jumps to end
		{3, 3, 3, 3, 3, 3},          // overlapping records; greedy takes 0,3
		{9, 0, 0},                   // match longer than the chunk tail
		{0, 4, 0, 0, 0, 0, 2, 0, 0}, // sub-minimum record at 6 is a literal
	}
	const minMatch = 3
	dev := cudasim.FermiGTX480()
	// One record serves every case, as the pool reuses them: the six-byte
	// case runs on the eight-byte case's scratch, position 5 selected.
	rec := new(v2Records)
	for ci, matchLen := range cases {
		// Serial reference walk.
		want := make([]bool, len(matchLen))
		for pos := 0; pos < len(matchLen); {
			want[pos] = true
			if l := int(matchLen[pos]); l >= minMatch {
				pos += l
			} else {
				pos++
			}
		}
		var got []bool
		rec.len = matchLen
		_, err := dev.LaunchPhased(cudasim.LaunchConfig{
			Kernel: "select_unit", Blocks: 1, ThreadsPerBlock: 32,
		}, func(b *cudasim.BlockCtx) {
			got = selectChunkPositions(b, rec, minMatch)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: length %d vs %d", ci, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d: position %d selected=%v, want %v (matchLen=%v)", ci, i, got[i], want[i], matchLen)
			}
		}
	}
}
