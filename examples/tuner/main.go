// Tuner: the paper's §VII future-work item — "a more detailed tuning
// configuration API that gives the ability to adjust the program for the
// needs of the user. If better compression ratio is required, an
// adjustable configuration of increased window size can help. For a faster
// execution but lesser compression ratio ... playing with the buffer and
// bucket sizes."
//
// The example sweeps window size and threads-per-block over a sample of
// the user's data (a file path argument, or a generated corpus) and
// reports the simulated-time/ratio frontier plus a recommendation for
// each objective.
//
// Run with:
//
//	go run ./examples/tuner [file]
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/stats"
)

type point struct {
	window, tpb int
	codec       string
	ratio       float64
	simTime     time.Duration
}

func main() {
	var data []byte
	if len(os.Args) > 1 {
		var err error
		if data, err = os.ReadFile(os.Args[1]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tuning for %s (%s)\n\n", os.Args[1], stats.FormatBytes(int64(len(data))))
	} else {
		data = datasets.CFiles(2<<20, 11)
		fmt.Printf("tuning for a generated C corpus (%s); pass a file path to tune your own data\n\n",
			stats.FormatBytes(int64(len(data))))
	}
	// Tune on a sample for speed; apply to the full data at the end.
	sample := data
	if len(sample) > 1<<20 {
		sample = sample[:1<<20]
	}

	fmt.Printf("%-8s %-8s %-8s %-10s %-12s\n", "codec", "window", "tpb", "ratio", "sim time")
	var points []point
	for _, name := range []string{"v1", "v2"} {
		for _, window := range []int{32, 64, 128, 256} {
			for _, tpb := range []int{64, 128, 256} {
				if name == "v1" && tpb > 128 && window >= 256 {
					continue // cannot be resident: per-thread buffers exceed the SM
				}
				comp, report, err := core.Compress(sample, name, core.Params{
					Window: window, ThreadsPerBlock: tpb,
				})
				if err != nil {
					// Some shapes legitimately do not fit (paper §V);
					// report and move on.
					fmt.Printf("%-8s %-8d %-8d does not fit (%v)\n", name, window, tpb, err)
					continue
				}
				p := point{
					window: window, tpb: tpb, codec: name,
					ratio:   stats.Ratio(len(comp), len(sample)),
					simTime: report.SaturatedTotal(),
				}
				points = append(points, p)
				fmt.Printf("%-8s %-8d %-8d %-10s %-12v\n", name, window, tpb,
					stats.RatioPercent(len(comp), len(sample)), p.simTime.Round(time.Microsecond))
			}
		}
	}
	if len(points) == 0 {
		log.Fatal("no configuration fit the device")
	}

	best := func(less func(a, b point) bool) point {
		b := points[0]
		for _, p := range points[1:] {
			if less(p, b) {
				b = p
			}
		}
		return b
	}
	fastest := best(func(a, b point) bool { return a.simTime < b.simTime })
	smallest := best(func(a, b point) bool { return a.ratio < b.ratio })
	// Balanced: the fastest configuration whose ratio stays within 10% of
	// the best ratio achieved.
	balanced := smallest
	for _, p := range points {
		if p.ratio <= smallest.ratio*1.10 && p.simTime < balanced.simTime {
			balanced = p
		}
	}

	fmt.Println()
	rec := func(label string, p point) {
		fmt.Printf("%-18s codec=%s window=%d tpb=%d  (ratio %s, sim %v)\n", label,
			p.codec, p.window, p.tpb, fmt.Sprintf("%.1f%%", p.ratio*100), p.simTime.Round(time.Microsecond))
	}
	rec("fastest:", fastest)
	rec("best ratio:", smallest)
	rec("balanced:", balanced)

	// Apply the balanced configuration to the full input.
	comp, _, err := core.Compress(data, balanced.codec, core.Params{
		Window: balanced.window, ThreadsPerBlock: balanced.tpb,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull input with the balanced configuration: %s -> %s (%s)\n",
		stats.FormatBytes(int64(len(data))), stats.FormatBytes(int64(len(comp))),
		stats.RatioPercent(len(comp), len(data)))
}
