package durable

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/faults"
	"culzss/internal/format"
	"culzss/internal/obs"
)

// refStream compresses input through a plain core.Writer with the same
// parameters a durable writer would use — the uninterrupted reference
// every crash test compares against (compression is deterministic for a
// fixed codec and segment size).
func refStream(t *testing.T, input []byte, p core.Params, segSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := core.NewWriterOptions(&buf, p, core.StreamOptions{Codec: "v1", SegmentSize: segSize})
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// boundaries returns the record-boundary offsets of a framed stream:
// just past the header, past each segment frame, and past the trailer.
func boundaries(t *testing.T, stream []byte) []int64 {
	t.Helper()
	s := format.NewBoundaryScanner()
	var bounds []int64
	for i := range stream {
		if _, err := s.Write(stream[i : i+1]); err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if n := int64(i + 1); s.GoodOffset() == n {
			bounds = append(bounds, n)
		}
	}
	return bounds
}

func decodeFile(t *testing.T, path string, p core.Params) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := core.NewReader(bufio.NewReader(f), p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCreateCloseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")
	input := datasets.CFiles(40<<10, 31)
	p := core.Params{}

	w, err := Create(path, p, Options{Stream: core.StreamOptions{Codec: "v1", SegmentSize: 8 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(PartialPath(path)); !os.IsNotExist(err) {
		t.Fatalf("partial file survived a clean Close: %v", err)
	}
	if got := decodeFile(t, path, p); !bytes.Equal(got, input) {
		t.Fatal("decoded output differs from input")
	}
	st := w.Stats()
	if st.Committed != st.Segments || st.Segments != 5 {
		t.Fatalf("stats = %+v, want all 5 segments committed", st)
	}
	// Double Close stays a no-op.
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestCommitCadenceSyncsAtConfiguredBoundaries(t *testing.T) {
	// 8 full segments with CommitEverySegments=2: commits at frames
	// 2/4/6/8, one final commit covering the trailer, one directory sync
	// after the rename — 6 SiteSync probes on an unarmed injector.
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")
	in := faults.New(7)
	p := core.Params{Injector: in}

	w, err := Create(path, p, Options{
		CommitEverySegments: 2,
		Stream:              core.StreamOptions{Codec: "v1", SegmentSize: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(datasets.CFiles(32<<10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c := in.Counts(faults.SiteSync); c.Attempts != 6 || c.Injected != 0 {
		t.Fatalf("SiteSync counts = %+v, want {6 0}", c)
	}
	if st := w.Stats(); st.Committed != 8 {
		t.Fatalf("Committed = %d, want 8", st.Committed)
	}
}

func TestCommitEveryBytesTriggers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")
	in := faults.New(7)
	p := core.Params{Injector: in}

	// A byte trigger far below one segment's output commits every frame
	// even though the segment cadence alone (1000) never would.
	w, err := Create(path, p, Options{
		CommitEverySegments: 1000,
		CommitEveryBytes:    1,
		Stream:              core.StreamOptions{Codec: "v1", SegmentSize: 8 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(datasets.CFiles(24<<10, 9)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Header + 3 frames + final commit + dir sync = at least 5 probes.
	if c := in.Counts(faults.SiteSync); c.Attempts < 5 {
		t.Fatalf("SiteSync attempts = %d, want >= 5", c.Attempts)
	}
}

func TestFsyncFailureKeepsPartialAndResumes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")
	input := datasets.CFiles(40<<10, 13)
	p := core.Params{}
	ref := refStream(t, input, p, 8<<10)

	// Every fsync fails: the first commit kills the stream.
	in := faults.New(7).Always(faults.SiteSync)
	pi := p
	pi.Injector = in
	w, err := Create(path, pi, Options{Stream: core.StreamOptions{Codec: "v1", SegmentSize: 8 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := w.Write(input)
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Fatal("injected fsync failures never surfaced")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("final path appeared despite fsync failures")
	}
	if _, err := os.Stat(PartialPath(path)); err != nil {
		t.Fatalf("partial file missing after fsync failure: %v", err)
	}

	// Resume with a healthy environment completes the stream.
	rw, rep, err := Resume(path, p, Options{Stream: core.StreamOptions{Codec: "v1", SegmentSize: 8 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("interrupted stream reported complete")
	}
	if _, err := rw.Write(input[rep.TotalLen:]); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, ref) {
		t.Fatalf("resumed stream differs from uninterrupted reference (%d vs %d bytes)",
			len(final), len(ref))
	}
	if st := rw.Stats(); st.Resumed != rep.NextIndex {
		t.Fatalf("Resumed = %d, want %d", st.Resumed, rep.NextIndex)
	}
}

func TestResumeCompletePartialFinalizes(t *testing.T) {
	// Crash between the trailer fsync and the rename: the partial holds a
	// complete stream. Resume finalizes it without writing anything.
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")
	input := datasets.CFiles(30<<10, 23)
	p := core.Params{}
	ref := refStream(t, input, p, 8<<10)
	if err := os.WriteFile(PartialPath(path), ref, 0o644); err != nil {
		t.Fatal(err)
	}
	w, rep, err := Resume(path, p, Options{Stream: core.StreamOptions{Codec: "v1"}})
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatal("Resume of a complete partial must not return a writer")
	}
	if !rep.Complete || rep.TotalLen != len(input) {
		t.Fatalf("report = %+v, want complete covering %d bytes", rep, len(input))
	}
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, ref) {
		t.Fatal("finalized stream differs from reference")
	}
	if _, err := os.Stat(PartialPath(path)); !os.IsNotExist(err) {
		t.Fatal("partial survived finalization")
	}
}

func TestResumeHeaderlessPartialStartsOver(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")
	input := datasets.CFiles(20<<10, 3)
	p := core.Params{}
	ref := refStream(t, input, p, 8<<10)

	// The crash hit inside the 7-byte header: nothing is recoverable.
	if err := os.WriteFile(PartialPath(path), ref[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	w, rep, err := Resume(path, p, Options{Stream: core.StreamOptions{Codec: "v1", SegmentSize: 8 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HeaderOK || rep.TotalLen != 0 {
		t.Fatalf("report = %+v, want headerless zero-progress", rep)
	}
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, ref) {
		t.Fatal("restarted stream differs from reference")
	}
	if st := w.Stats(); st.Resumed != 0 {
		t.Fatalf("Resumed = %d for a restarted stream, want 0", st.Resumed)
	}
}

func TestScanTailRejectsForeignFiles(t *testing.T) {
	p := core.Params{}
	if _, err := ScanTail(bytes.NewReader([]byte("not a clzs stream at all")), p); err == nil {
		t.Fatal("ScanTail accepted a foreign file")
	}
}

func TestDurableObsCounters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.clzs")
	input := datasets.CFiles(32<<10, 41)
	reg := obs.NewRegistry()
	p := core.Params{Obs: reg}
	ref := refStream(t, input, core.Params{}, 8<<10)

	// Interrupt at an intra-frame offset, then resume under the same
	// registry.
	cut := int64(len(ref) - len(ref)/3)
	if err := os.WriteFile(PartialPath(path), ref[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	w, rep, err := Resume(path, p, Options{Stream: core.StreamOptions{Codec: "v1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(input[rep.TotalLen:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if v := reg.Counter("culzss_durable_resumes_total").Value(); v != 1 {
		t.Fatalf("resumes counter = %d, want 1", v)
	}
	if v := reg.Counter("culzss_durable_resume_truncated_bytes_total").Value(); v != cut-rep.LastGoodOffset {
		t.Fatalf("truncated counter = %d, want %d", v, cut-rep.LastGoodOffset)
	}
	if v := reg.Counter("culzss_durable_commits_total").Value(); v < 1 {
		t.Fatalf("commits counter = %d, want >= 1", v)
	}
	if h := reg.Histogram("culzss_commit_seconds").Snapshot(); h.Count < 1 {
		t.Fatalf("commit_seconds observations = %d, want >= 1", h.Count)
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"culzss_durable_commits_total",
		"culzss_durable_commit_bytes_total",
		"culzss_durable_resumes_total",
		"culzss_commit_seconds",
	} {
		if !bytes.Contains(prom.Bytes(), []byte(name)) {
			t.Fatalf("exposition is missing %s", name)
		}
	}
}
