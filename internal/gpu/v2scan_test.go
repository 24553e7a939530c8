package gpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/lzss"
)

// TestV2ScanMatchesWordScanInAnyLaneOrder: every lane of every tile of
// every 4 KiB chunk records the word scan's match and moves the search
// counters by the word scan's amounts, across the ThreadsPerBlock and
// Window ablation grid, whether a tile's lanes run in order, in reverse
// or shuffled. Lane order changing nothing is what makes the tile
// index's run cache a pure cache.
func TestV2ScanMatchesWordScanInAnyLaneOrder(t *testing.T) {
	n := 2*DefaultChunkSize + 1000
	if testing.Short() || raceEnabled {
		n = DefaultChunkSize/2 + 700 // one partial chunk
	}
	inputs := map[string][]byte{"zeros": make([]byte, n), "random": randomBytes(n, 41)}
	for _, g := range datasets.All() {
		inputs[g.Key] = g.Gen(n, 42)
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			for _, tpb := range []int{32, 64, 128, 256, 512} {
				for _, window := range []int{32, 64, 128, 256} {
					cfg := lzss.Config{Window: window, MaxMatch: 258, MinMatch: 3}
					for _, chunk := range format.SplitChunks(data, DefaultChunkSize) {
						checkV2Scan(t, chunk, &cfg, tpb, rng)
					}
				}
			}
		})
	}
}

// checkV2Scan stages chunk's tiles as the V2 kernel does, each into the
// same buffer over the previous tile's bytes, and runs every tile's lanes
// forward, in reverse and in a seeded shuffle.
func checkV2Scan(t *testing.T, chunk []byte, cfg *lzss.Config, tpb int, rng *rand.Rand) {
	t.Helper()
	var st lzss.SearchStats
	rec := getV2Records(len(chunk))
	defer releaseV2Records([]*v2Records{rec})
	scan := newV2Scan(cfg, tpb, rec, &st)
	defer scan.release()
	staged := make([]byte, cfg.Window+tpb+cfg.MaxMatch)
	for tile := 0; tile < len(chunk); tile += tpb {
		lo, hi := scan.bounds(tile)
		region := staged[:copy(staged, chunk[lo:hi])]
		forward := make([]int, min(tpb, len(chunk)-tile))
		reverse := make([]int, len(forward))
		for i := range forward {
			forward[i], reverse[len(reverse)-1-i] = i, i
		}
		shuffled := rng.Perm(len(forward))
		for _, order := range [][]int{forward, reverse, shuffled} {
			scan.stage(tile, region)
			for _, tid := range order {
				pos := tile + tid
				before := st
				scan.lane(pos)
				got := lzss.SearchStats{
					Positions:   st.Positions - before.Positions,
					Offsets:     st.Offsets - before.Offsets,
					Comparisons: st.Comparisons - before.Comparisons,
					Matched:     st.Matched - before.Matched,
				}
				var want lzss.SearchStats
				m := lzss.LongestMatch(region, pos-lo, pos-lo-cfg.Window, cfg, &want)
				if int(rec.len[pos]) != m.Length || int(rec.dist[pos]) != max(m.Distance-1, 0) || got != want {
					t.Fatalf("tpb %d window %d pos %d: record (%d, %d) counters %+v, word scan %+v %+v",
						tpb, cfg.Window, pos, rec.len[pos], int(rec.dist[pos])+1, got, m, want)
				}
			}
		}
	}
}

// TestConcurrentLaunchesShareScratch: V1 and V2 launches, and their CPU
// twins, running at once on several goroutines draw chunk streams,
// window indexes, records, scans and block contexts from the shared
// pools, and each still produces the serial output.
func TestConcurrentLaunchesShareScratch(t *testing.T) {
	type engine struct {
		name string
		run  func([]byte, Options) ([]byte, error)
	}
	launch := func(f func([]byte, Options) ([]byte, *Report, error)) func([]byte, Options) ([]byte, error) {
		return func(data []byte, opts Options) ([]byte, error) {
			cont, _, err := f(data, opts)
			return cont, err
		}
	}
	pairs := [][2]engine{
		{{"CompressV2", launch(CompressV2)}, {"CompressV2CPU", CompressV2CPU}},
		{{"CompressV1", launch(CompressV1)}, {"CompressV1CPU", CompressV1CPU}},
	}
	inputs := make([][]byte, 4)
	for i := range inputs {
		inputs[i] = datasets.All()[i].Gen(48<<10+i*777, int64(50+i))
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for _, pair := range pairs {
		for i, input := range inputs {
			want, err := pair[0].run(input, Options{HostWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range pair {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got, err := e.run(input, Options{HostWorkers: 2}); err != nil || !bytes.Equal(got, want) {
						mu.Lock()
						errs = append(errs, fmt.Errorf("%s of input %d: err %v, output differs: %v", e.name, i, err, !bytes.Equal(got, want)))
						mu.Unlock()
					}
				}()
			}
		}
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
}
