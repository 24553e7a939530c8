package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/obs"
)

// refParityStream is refStream for a parity-bearing stream.
func refParityStream(t *testing.T, input []byte, p core.Params, segSize, k, m int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := core.NewWriterOptions(&buf, p, core.StreamOptions{
		Codec:       "v2",
		SegmentSize: segSize,
		Parity:      core.ParityConfig{K: k, M: m},
	})
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writePartial(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(PartialPath(path), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScanTailParityState(t *testing.T) {
	const seg = 8 << 10
	input := datasets.CFiles(9*seg-seg/2, 41) // 9 segments: groups 4+4+1
	p := core.Params{}
	full := refParityStream(t, input, p, seg, 4, 2)
	bounds := boundaries(t, full)
	// bounds: header, d0..d3, p0, p1, d4..d7, p2, p3, d8, p4, p5, trailer.
	if len(bounds) != 1+9+6+1 {
		t.Fatalf("boundary count = %d, want 17", len(bounds))
	}
	dir := t.TempDir()
	scan := func(prefix []byte) *TailReport {
		t.Helper()
		path := filepath.Join(dir, "s.clzs")
		writePartial(t, path, prefix)
		f, err := os.Open(PartialPath(path))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep, err := ScanTail(f, p)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Cut after data frame 6 (mid group 1): geometry learned, the three
	// post-run frames carried for the resumed writer's accumulator.
	rep := scan(full[:bounds[9]])
	if rep.ParityK != 4 || rep.ParityM != 2 {
		t.Fatalf("geometry = %d+%d, want 4+2", rep.ParityK, rep.ParityM)
	}
	if rep.NextIndex != 7 || len(rep.GroupFrames) != 3 {
		t.Fatalf("NextIndex=%d GroupFrames=%d, want 7 and 3", rep.NextIndex, len(rep.GroupFrames))
	}
	if rep.LastGoodOffset != bounds[9] {
		t.Fatalf("LastGoodOffset=%d, want %d", rep.LastGoodOffset, bounds[9])
	}

	// Cut after p0 of group 0 (incomplete run): the run is not a resume
	// point; the verified offset stays at data frame 3 and the whole
	// group is carried.
	rep = scan(full[:bounds[5]])
	if rep.LastGoodOffset != bounds[4] {
		t.Fatalf("partial run kept: LastGoodOffset=%d, want %d", rep.LastGoodOffset, bounds[4])
	}
	if rep.NextIndex != 4 || len(rep.GroupFrames) != 4 {
		t.Fatalf("NextIndex=%d GroupFrames=%d, want 4 and 4", rep.NextIndex, len(rep.GroupFrames))
	}

	// Cut right after group 0's complete run: a clean group boundary.
	rep = scan(full[:bounds[6]])
	if rep.LastGoodOffset != bounds[6] || len(rep.GroupFrames) != 0 {
		t.Fatalf("full run dropped: LastGoodOffset=%d GroupFrames=%d", rep.LastGoodOffset, len(rep.GroupFrames))
	}

	// Cut inside the short tail run (p4 on disk, p5 lost): short groups
	// are Close tails — truncated back to the data frame and re-covered.
	rep = scan(full[:bounds[14]])
	if rep.LastGoodOffset != bounds[13] || len(rep.GroupFrames) != 1 {
		t.Fatalf("short tail run: LastGoodOffset=%d GroupFrames=%d", rep.LastGoodOffset, len(rep.GroupFrames))
	}
}

func TestResumeParityByteEquivalentAcrossCuts(t *testing.T) {
	const seg = 8 << 10
	input := datasets.CFiles(9*seg-seg/2, 42)
	p := core.Params{}
	full := refParityStream(t, input, p, seg, 4, 2)
	bounds := boundaries(t, full)
	o := Options{Stream: core.StreamOptions{Codec: "v2", Parity: core.ParityConfig{K: 4, M: 2}}}

	// Every record-boundary cut (and a few torn mid-record ones) must
	// resume into a file byte-identical to the uninterrupted run.
	cuts := make([]int, 0, len(bounds)+2)
	for _, b := range bounds[:len(bounds)-1] { // final boundary = complete stream
		cuts = append(cuts, int(b))
	}
	cuts = append(cuts, int(bounds[3])+5, int(bounds[10])+2)
	for _, cut := range cuts {
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.clzs")
			writePartial(t, path, full[:cut])
			w, rep, err := Resume(path, p, o)
			if err != nil {
				t.Fatal(err)
			}
			if w == nil {
				t.Fatal("complete stream from a strict prefix")
			}
			if _, err := w.Write(input[rep.TotalLen:]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, full) {
				t.Fatalf("resumed stream differs from uninterrupted run (%d vs %d bytes)", len(got), len(full))
			}
		})
	}
}

func TestResumeTornFrameRepairsFromParity(t *testing.T) {
	// The self-healing acceptance case: the crash tore a data frame whose
	// group parity did reach the disk (out-of-order sector landing).
	// Resume must rebuild the frame in place from the parity instead of
	// truncating it and everything after it.
	const seg = 8 << 10
	input := datasets.CFiles(9*seg-seg/2, 43)
	reg := obs.NewRegistry()
	p := core.Params{Obs: reg}
	full := refParityStream(t, input, p, seg, 4, 2)
	bounds := boundaries(t, full)
	o := Options{Stream: core.StreamOptions{Codec: "v2", Parity: core.ParityConfig{K: 4, M: 2}}}

	// Partial ends after group 0's parity run; data frame 3 is torn.
	prefix := append([]byte(nil), full[:bounds[6]]...)
	for i := bounds[3] + 3; i < bounds[4]-1; i++ {
		prefix[i] = 0xEE
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")
	writePartial(t, path, prefix)

	w, rep, err := Resume(path, p, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 {
		t.Fatalf("torn frame not repaired from parity (NextIndex=%d)", rep.NextIndex)
	}
	if rep.NextIndex != 4 || rep.LastGoodOffset != bounds[6] {
		t.Fatalf("repair did not extend the prefix: NextIndex=%d LastGoodOffset=%d want 4, %d",
			rep.NextIndex, rep.LastGoodOffset, bounds[6])
	}
	if v := reg.Counter("culzss_durable_resume_repaired_frames_total").Value(); v == 0 {
		t.Fatal("repaired-frames counter did not move")
	}
	if _, err := w.Write(input[rep.TotalLen:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("healed resumed stream differs from uninterrupted run")
	}
}

func TestResumeTornFrameAndTornParityTail(t *testing.T) {
	// Harder: the same torn frame, but the run behind it is itself torn
	// (p1 cut mid-record). One parity shard is enough for one erasure,
	// and the repair sink regenerates p1's bytes too — the rescan then
	// finds the complete run back in place.
	const seg = 8 << 10
	input := datasets.CFiles(9*seg-seg/2, 44)
	p := core.Params{}
	full := refParityStream(t, input, p, seg, 4, 2)
	bounds := boundaries(t, full)
	o := Options{Stream: core.StreamOptions{Codec: "v2", Parity: core.ParityConfig{K: 4, M: 2}}}

	prefix := append([]byte(nil), full[:bounds[6]-3]...) // p1 loses its last bytes
	for i := bounds[3] + 3; i < bounds[4]-1; i++ {
		prefix[i] = 0xEE
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")
	writePartial(t, path, prefix)

	w, rep, err := Resume(path, p, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 || rep.NextIndex != 4 {
		t.Fatalf("repair with torn parity tail: Repaired=%d NextIndex=%d", rep.Repaired, rep.NextIndex)
	}
	if rep.LastGoodOffset != bounds[6] || len(rep.GroupFrames) != 0 {
		t.Fatalf("run not fully regenerated: LastGoodOffset=%d (want %d) GroupFrames=%d",
			rep.LastGoodOffset, bounds[6], len(rep.GroupFrames))
	}
	if _, err := w.Write(input[rep.TotalLen:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("healed resumed stream differs from uninterrupted run")
	}
}
