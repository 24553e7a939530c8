package harness

import (
	"strings"
	"testing"
	"time"

	"culzss/internal/codec"
)

// The Writer codec cells are the bench gate's routing evidence:
// deterministic, and the adaptive route must not lose to the fixed V1
// route on either the modeled clock or the stream size (the PR's
// "selector beats fixed V1 on a bench dataset" acceptance bar).
func TestWriterCodecCellsDeterminismAndRouting(t *testing.T) {
	cfg := Config{Size: 1 << 20, Reps: 1, Modeled: true}
	names := []string{"v1", "v2", codec.Auto}
	cells, err := WriterCodecCells(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	byName := map[string]BenchCell{}
	for i, c := range cells {
		if want := "Writer " + names[i]; c.System != want {
			t.Fatalf("cell %d system %q, want %q", i, c.System, want)
		}
		if c.NsPerOp <= 0 {
			t.Fatalf("%s: non-positive modeled time %d", c.System, c.NsPerOp)
		}
		byName[names[i]] = c
	}
	if a, v1 := byName[codec.Auto], byName["v1"]; a.RatioPct > v1.RatioPct {
		t.Errorf("adaptive route ratio %.2f%% worse than fixed V1 %.2f%%", a.RatioPct, v1.RatioPct)
	}

	again, err := WriterCodecCells(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			t.Errorf("cell %d not deterministic: %+v vs %+v", i, cells[i], again[i])
		}
	}

	// Routes without a per-segment cost model are refused, not mispriced.
	if _, err := WriterCodecCells(cfg, []string{"cpu"}); err == nil {
		t.Error("stats-modeled host route accepted by the Writer cells")
	}
}

// pipelineMakespan in the Writer's shape: no read stage and a serial
// emitter. The emitter overlaps the worker: frames 0..14 are written
// while frame i+1 compresses; only the last emit extends the makespan.
func TestWriterMakespan(t *testing.T) {
	const n = 16
	checkMakespan(t, nil, makespanSteps(n, 80*time.Millisecond), makespanSteps(n, time.Millisecond),
		n*80*time.Millisecond+time.Millisecond)
}

// The codec-routing ablation covers every paper dataset with all four
// routes, renders deterministically, and shows the selector never
// picking a route the fixed columns beat on ratio by more than the
// table's own rounding.
func TestAblationCodecTable(t *testing.T) {
	cfg := Config{Size: 256 << 10, Reps: 1, Modeled: true}
	tab, err := AblationCodec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5*4 {
		t.Fatalf("got %d rows, want 20 (5 datasets x 4 routes)", len(tab.Rows))
	}
	for i := 0; i < len(tab.Rows); i += 4 {
		ds := tab.Rows[i][0]
		routes := map[string][]string{}
		for j := 0; j < 4; j++ {
			row := tab.Rows[i+j]
			if row[0] != ds {
				t.Fatalf("row %d: dataset %q, want %q (rows not grouped)", i+j, row[0], ds)
			}
			routes[row[1]] = row
		}
		for _, name := range []string{"v1", "v2", "cpu", codec.Auto} {
			if routes[name] == nil {
				t.Fatalf("dataset %q: missing route %q", ds, name)
			}
		}
		// The mix column names the chosen engines; fixed routes are pure.
		if mix := routes["v2"][4]; strings.ContainsAny(mix, "+") {
			t.Errorf("dataset %q: fixed v2 route mixed codecs: %s", ds, mix)
		}
	}

	again, err := AblationCodec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Render() != again.Render() {
		t.Error("ablation table not deterministic across runs")
	}
}
