// Quickstart: the paper's Figure 2 in-memory API end to end.
//
// It compresses a buffer with each codec, decompresses through
// the codec-dispatching Decompress, verifies the round trip, and prints
// the paper's Figure 1 worked example encoded by the real encoder.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"culzss/internal/codec"
	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/lzss"
	"culzss/internal/stats"
)

func main() {
	info := core.Init()
	fmt.Printf("device: %s (%d CUDA cores, %d KiB shared per SM)\n\n",
		info.Device.Name, info.CUDACores, info.SharedPerSM>>10)

	// --- Figure 1: the paper's worked encoding example -----------------
	figure1 := []byte("I meant what I said and I said what I meant. " +
		"From there to here, from here to there. I said what I meant.")
	cfg := lzss.Config{Window: 256, MaxMatch: 64, MinMatch: 3}
	tokensStream, err := lzss.EncodeByteAligned(figure1, cfg, lzss.SearchBrute, nil)
	if err != nil {
		log.Fatal(err)
	}
	tokens, err := lzss.ParseTokensByteAligned(tokensStream, len(figure1), &cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 1 example: %d chars -> %d bytes, tokens:\n  ", len(figure1), len(tokensStream))
	pos := 0
	for _, tok := range tokens {
		if tok.Coded {
			fmt.Printf("(%d,%d)", pos-tok.Match.Distance, tok.Match.Length)
			pos += tok.Match.Length
		} else {
			fmt.Printf("%c", tok.Literal)
			pos++
		}
	}
	fmt.Print("\n\n")

	// --- The in-memory API over a realistic payload ---------------------
	payload := datasets.CFiles(1<<20, 42)
	fmt.Printf("payload: %s of generated C source\n\n", stats.FormatBytes(int64(len(payload))))

	for _, name := range []string{"v1", "v2", "cpu", "pthread", codec.Auto} {
		start := time.Now()
		comp, report, err := core.Compress(payload, name, core.Params{})
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start)

		back, err := core.Decompress(comp, core.Params{})
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(back, payload) {
			log.Fatalf("%s: round trip mismatch", name)
		}

		line := fmt.Sprintf("%-10s ratio %-7s host %-10v", name,
			stats.RatioPercent(len(comp), len(payload)), wall.Round(time.Millisecond))
		if report != nil {
			line += fmt.Sprintf(" simulated GPU %v (kernel %v)",
				report.SimulatedTotal().Round(time.Microsecond),
				report.Launch.KernelTime.Round(time.Microsecond))
		}
		fmt.Println(line)
	}

	fmt.Printf("\nauto-selection picked %v for this payload (paper §V: V2 for ~50%% compressible)\n",
		codec.SelectCodec(payload))
}
