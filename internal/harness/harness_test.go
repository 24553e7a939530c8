package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"culzss/internal/lzss"
)

// testConfig keeps harness tests fast: small inputs, single rep, and the
// hash-chain serial matcher (identical output to brute force, far faster).
func testConfig() Config {
	return Config{Size: 96 << 10, Reps: 1, Seed: 99, SerialSearch: lzss.SearchHashChain}
}

func TestRunCompressionGrid(t *testing.T) {
	m, err := RunCompression(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Datasets) != 5 || len(m.Systems) != 5 {
		t.Fatalf("grid %dx%d", len(m.Datasets), len(m.Systems))
	}
	for _, ds := range m.Datasets {
		for _, sys := range m.Systems {
			c := m.Cell(ds, sys)
			if c == nil {
				t.Fatalf("missing cell %s/%s", ds, sys)
			}
			if c.Time <= 0 {
				t.Fatalf("%s/%s: non-positive time", ds, sys)
			}
			if c.CompressedLen <= 0 || c.OriginalLen != 96<<10 {
				t.Fatalf("%s/%s: bad sizes %d/%d", ds, sys, c.CompressedLen, c.OriginalLen)
			}
			if c.Ratio() <= 0 || c.Ratio() > 1.2 {
				t.Fatalf("%s/%s: implausible ratio %v", ds, sys, c.Ratio())
			}
		}
	}
	// GPU cells carry reports; bzip2 cells carry sort stats.
	if m.Cell("C files", SysV1).GPUReport == nil {
		t.Fatal("V1 cell missing GPU report")
	}
	if m.Cell("Highly Compr.", SysBZip2).SortStats.FallbackElems == 0 {
		t.Fatal("bzip2 fallback stats missing on highly-compressible data")
	}
}

// TestPaperShapeHolds asserts the qualitative Table I / Table II / Figure 4
// relationships the reproduction targets (DESIGN.md §4). It runs the
// paper's configuration — brute-force serial baseline — at a size where
// the simulated device is reasonably utilised, on the Modeled timing
// basis: every duration derives from operation counters, so the
// assertions are deterministic on any host, including under -race (which
// used to force skipping the V1-vs-V2 comparison when the basis mixed in
// measured host time).
func TestPaperShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs the full grid at 2 MiB")
	}
	cfg := Config{Size: 2 << 20, Reps: 1, Seed: 99, SerialSearch: lzss.SearchBrute, Modeled: true}
	m, err := RunCompression(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// GPU comparisons use the saturated-device times: at the paper's
	// 128 MB the grids fill the GPU, but at the 2 MiB test size V1's
	// chunk-per-thread grid spawns only 4 blocks for 15 SMs.
	gpuTime := func(ds, sys string) time.Duration {
		return m.Cell(ds, sys).GPUReport.SaturatedTotal()
	}
	for _, ds := range m.Datasets {
		serial := m.Cell(ds, SysSerial).Time
		v1 := gpuTime(ds, SysV1)
		v2 := gpuTime(ds, SysV2)
		// V1 beats serial everywhere (Figure 4: all V1 speed-ups > 1).
		if v1 >= serial {
			t.Errorf("%s: V1 (%v) not faster than serial (%v)", ds, v1, serial)
		}
		// V2 beats serial on the three text-like sets (on DE map and the
		// highly-compressible set the paper's V2 also loses its edge).
		if v2 >= serial && ds != "Highly Compr." && ds != "DE Map" {
			t.Errorf("%s: V2 (%v) not faster than serial (%v)", ds, v2, serial)
		}
	}
	// V2 wins the three text-like sets, V1 the two highly-compressible
	// ones (Table I / §V). On the modeled basis the V2 host post-pass is
	// deterministic, so this runs under -race too — the detector slows
	// the run down but cannot change a single duration.
	for _, ds := range []string{"C files", "Dictionary", "Kernel tarball"} {
		if !(gpuTime(ds, SysV2) < gpuTime(ds, SysV1)) {
			t.Errorf("%s: V2 (%v) not faster than V1 (%v)", ds, gpuTime(ds, SysV2), gpuTime(ds, SysV1))
		}
	}
	for _, ds := range []string{"DE Map", "Highly Compr."} {
		if !(gpuTime(ds, SysV1) < gpuTime(ds, SysV2)) {
			t.Errorf("%s: V1 (%v) not faster than V2 (%v)", ds, gpuTime(ds, SysV1), gpuTime(ds, SysV2))
		}
	}
	// BZIP2's pathology (paper: 77.8s on highly-compressible vs 9-21s
	// elsewhere): the nearly-free dataset — every other system's BEST
	// row by a wide margin — is bzip2's WORST, because the block sort
	// falls back on the period-20 ties. Assert the comparative shape,
	// which is robust to host noise.
	bzHigh := m.Cell("Highly Compr.", SysBZip2).Time
	bzText := m.Cell("C files", SysBZip2).Time
	if bzHigh <= bzText {
		t.Errorf("BZIP2 not slowest on highly-compressible: %v vs %v on C files", bzHigh, bzText)
	}
	// (V2 is excluded: it cannot skip matched spans, so the free dataset
	// is not its best row — the §V trade-off.)
	for _, sys := range []string{SysSerial, SysPthread, SysV1} {
		if h, c := m.Cell("Highly Compr.", sys).Time, m.Cell("C files", sys).Time; h >= c {
			t.Errorf("%s: highly-compressible (%v) not faster than C files (%v)", sys, h, c)
		}
	}
	if st := m.Cell("Highly Compr.", SysBZip2).SortStats; st.FallbackElems == 0 {
		t.Error("bzip2 fallback sort did not trigger on the period-20 data")
	}
	// Ratio shape (Table II): BZIP2 well below serial LZSS on every set.
	for _, ds := range m.Datasets {
		if !(m.Cell(ds, SysBZip2).Ratio() < m.Cell(ds, SysSerial).Ratio()) {
			t.Errorf("%s: BZIP2 ratio not better than serial LZSS", ds)
		}
	}
	// V1 ratio within a few points of serial (paper: 55.7% vs 54.8%).
	for _, ds := range m.Datasets {
		d := m.Cell(ds, SysV1).Ratio() - m.Cell(ds, SysSerial).Ratio()
		if d < -0.05 || d > 0.12 {
			t.Errorf("%s: V1 ratio drifts %.3f from serial", ds, d)
		}
	}
	// V2 crushes the highly-compressible set relative to V1 (6.34% vs
	// 13.9%).
	if !(m.Cell("Highly Compr.", SysV2).Ratio() < m.Cell("Highly Compr.", SysV1).Ratio()*0.75) {
		t.Error("V2 not clearly better than V1 on highly-compressible data")
	}
}

// TestModeledBasisDeterministic pins the property the shape test relies
// on: two modeled runs over the same inputs report identical times, cell
// for cell — no wall-clock leaks into the basis.
func TestModeledBasisDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Modeled = true
	m1, err := RunCompression(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RunCompression(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range m1.Datasets {
		for _, sys := range m1.Systems {
			t1, t2 := m1.Cell(ds, sys).Time, m2.Cell(ds, sys).Time
			if t1 != t2 {
				t.Errorf("%s/%s: modeled time varies across runs: %v vs %v", ds, sys, t1, t2)
			}
			if t1 <= 0 {
				t.Errorf("%s/%s: non-positive modeled time %v", ds, sys, t1)
			}
		}
	}
}

func TestTablesRender(t *testing.T) {
	m, err := RunCompression(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t1 := TableI(m).Render()
	for _, want := range []string{"Table I", "C files", "Serial LZSS", "CULZSS V2", "Highly Compr."} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q:\n%s", want, t1)
		}
	}
	t2 := TableII(m).Render()
	for _, want := range []string{"Table II", "%", "BZIP2"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
	f4 := Figure4(m).Render()
	for _, want := range []string{"Figure 4", "x", "#"} {
		if !strings.Contains(f4, want) {
			t.Errorf("Figure 4 missing %q", want)
		}
	}
}

func TestRunDecompression(t *testing.T) {
	cfg := testConfig()
	cfg.Size = 1 << 20
	m, err := RunDecompression(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Datasets) != 5 {
		t.Fatalf("datasets = %d", len(m.Datasets))
	}
	out := TableIII(m).Render()
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "CULZSS") {
		t.Errorf("Table III malformed:\n%s", out)
	}
	// Shape: GPU decompression faster than serial on every set (at
	// saturated utilisation; 1 MiB fills only a fraction of the grid).
	for _, ds := range m.Datasets {
		ser := m.Cell(ds, SysSerial).Time
		cul := m.Cell(ds, "CULZSS").GPUReport.SaturatedTotal()
		if cul >= ser {
			t.Errorf("%s: CULZSS decompression (%v) not faster than serial (%v)", ds, cul, ser)
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := testConfig()
	shared, err := AblationSharedMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Rows) != 2 {
		t.Fatalf("shared ablation rows = %d", len(shared.Rows))
	}
	if !strings.Contains(shared.Render(), "global only") {
		t.Error("shared ablation missing global row")
	}

	tpb, err := AblationThreadsPerBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpb.Rows) != 5 {
		t.Fatalf("tpb ablation rows = %d", len(tpb.Rows))
	}
	// 512 threads must not fit V1's per-thread buffers (paper §V).
	last := tpb.Rows[len(tpb.Rows)-1]
	if last[1] != "does not fit" {
		t.Errorf("V1 at 512 threads/block should not fit, got %q", last[1])
	}

	win, err := AblationWindowSize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(win.Rows) != 4 {
		t.Fatalf("window ablation rows = %d", len(win.Rows))
	}
	// Wider window -> better (smaller) ratio across the sweep.
	parsePct := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscanf(s, "%f%%", &v); err != nil {
			t.Fatalf("bad ratio cell %q: %v", s, err)
		}
		return v
	}
	if !(parsePct(win.Rows[0][2]) > parsePct(win.Rows[3][2])) {
		t.Errorf("window sweep ratio not improving: %v vs %v", win.Rows[0][2], win.Rows[3][2])
	}

	bank, err := AblationBankSkew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bank.Rows) != 4 {
		t.Fatalf("bank ablation rows = %d", len(bank.Rows))
	}

	search, err := AblationSearchAlgorithm(Config{Size: 32 << 10, Reps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(search.Rows) != 5 {
		t.Fatalf("search ablation rows = %d", len(search.Rows))
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"", "a", "b"},
		Rows:    [][]string{{"row,1", "1.0", "2.0"}, {"r\"2", "3", "4"}},
	}
	csv := tab.CSV()
	for _, want := range []string{"# T\n", ",a,b\n", "\"row,1\",1.0,2.0\n", "\"r\"\"2\",3,4\n"} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing %q:\n%s", want, csv)
		}
	}
}
