package harness

import (
	"fmt"
	"strings"

	"culzss/internal/stats"
)

// Table is a rendered evaluation table in the paper's row/column layout.
type Table struct {
	Title   string
	Columns []string   // column headers (first column is the row label)
	Rows    [][]string // each row starts with its label
	Notes   []string
}

// Render produces an aligned ASCII rendition.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for i := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// secs renders a duration in seconds with adaptive precision, matching the
// paper's "50.58" style.
func secs(d float64) string {
	switch {
	case d >= 100:
		return fmt.Sprintf("%.1f", d)
	case d >= 0.01:
		return fmt.Sprintf("%.2f", d)
	default:
		return fmt.Sprintf("%.4f", d)
	}
}

// TableI renders the compression-times table (paper Table I).
func TableI(m *Matrix) *Table {
	t := &Table{
		Title:   "Table I — Compression benchmark average running times (in seconds)",
		Columns: append([]string{""}, m.Systems...),
		Notes: []string{
			"CPU systems: measured wall-clock. CULZSS: simulated GTX480 end-to-end",
			"(H2D + kernel + host step + D2H) from the cudasim model.",
		},
	}
	if m.Saturated {
		t.Notes = append(t.Notes,
			"GPU cells use saturated-device kernel times (work spread over all 15 SMs),",
			"the size-independent basis; the paper's 128 MB inputs saturate the device.")
	}
	for _, ds := range m.Datasets {
		row := []string{ds}
		for _, sys := range m.Systems {
			row = append(row, secs(m.Cell(ds, sys).Time.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TableII renders the compression-ratio table (paper Table II: Serial,
// BZIP2, V1, V2; smaller is better).
func TableII(m *Matrix) *Table {
	cols := []string{SysSerial, SysBZip2, SysV1, SysV2}
	t := &Table{
		Title:   "Table II — Compression ratios (smaller is better)",
		Columns: append([]string{""}, "Serial", "BZIP2", "V1", "V2"),
	}
	for _, ds := range m.Datasets {
		row := []string{ds}
		for _, sys := range cols {
			row = append(row, stats.RatioPercent(m.Cell(ds, sys).CompressedLen, m.Cell(ds, sys).OriginalLen))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TableIII renders the decompression-times table (paper Table III) from a
// RunDecompression matrix.
func TableIII(m *Matrix) *Table {
	t := &Table{
		Title:   "Table III — Decompression benchmark average running times (in seconds)",
		Columns: []string{"", "Serial LZSS", "CULZSS"},
		Notes: []string{
			"In-memory decompression (no I/O), as in paper §IV.D.",
		},
	}
	for _, ds := range m.Datasets {
		row := []string{ds,
			secs(m.Cell(ds, SysSerial).Time.Seconds()),
			secs(m.Cell(ds, "CULZSS").Time.Seconds()),
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figure4 renders the speed-up chart (paper Figure 4): every system's
// compression speed-up over the serial LZSS implementation, as a table of
// factors plus ASCII bars.
func Figure4(m *Matrix) *Table {
	others := []string{SysPthread, SysBZip2, SysV1, SysV2}
	t := &Table{
		Title:   "Figure 4 — Compression speed-up against the serial LZSS implementation",
		Columns: append([]string{""}, others...),
	}
	for _, ds := range m.Datasets {
		base := m.Cell(ds, SysSerial).Time
		row := []string{ds}
		for _, sys := range others {
			row = append(row, fmt.Sprintf("%.2fx", stats.Speedup(base, m.Cell(ds, sys).Time)))
		}
		t.Rows = append(t.Rows, row)
	}
	// ASCII bars, one block per system per dataset.
	maxSpeed := 1.0
	speed := map[string]float64{}
	for _, ds := range m.Datasets {
		base := m.Cell(ds, SysSerial).Time
		for _, sys := range others {
			s := stats.Speedup(base, m.Cell(ds, sys).Time)
			speed[key(ds, sys)] = s
			if s > maxSpeed {
				maxSpeed = s
			}
		}
	}
	const barWidth = 50
	t.Notes = append(t.Notes, "")
	for _, ds := range m.Datasets {
		t.Notes = append(t.Notes, ds)
		for _, sys := range others {
			s := speed[key(ds, sys)]
			n := int(s / maxSpeed * barWidth)
			if n < 1 {
				n = 1
			}
			t.Notes = append(t.Notes, fmt.Sprintf("  %-13s %s %.2fx", sys, strings.Repeat("#", n), s))
		}
	}
	return t
}

// CSV renders the table as RFC-4180-ish CSV (title as a comment line),
// for downstream plotting.
func (t *Table) CSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
