package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/durable"
	"culzss/internal/faults"
)

// listEntries returns the directory's entry names, for asserting that no
// temp or partial files leak.
func listEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestDecompressFailureLeavesNoDestination(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeInput(t, dir)
	comp := filepath.Join(dir, "out.clzs")
	if err := run([]string{"-stream", "-codec", "v1", "-segment", "8192", in, comp}); err != nil {
		t.Fatal(err)
	}
	// Cut the stream mid-frame: decompression must fail with the
	// truncation exit code and leave neither destination nor temp files.
	stream, err := os.ReadFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.clzs")
	if err := os.WriteFile(cut, stream[:len(stream)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "restored.dat")
	err = run([]string{"-d", cut, dst})
	if err == nil {
		t.Fatal("decompressing a truncated stream succeeded")
	}
	if code := exitCode(err); code != exitTruncated {
		t.Fatalf("exit code = %d, want %d (truncated): %v", code, exitTruncated, err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("truncated destination left behind: %v", err)
	}
	for _, name := range listEntries(t, dir) {
		if strings.Contains(name, ".tmp-") {
			t.Fatalf("temp file leaked: %s", name)
		}
	}
}

func TestCorruptInputExitCode(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeInput(t, dir)
	comp := filepath.Join(dir, "out.clz")
	if err := run([]string{"-codec", "v1", in, comp}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(comp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "restored.dat")
	err = run([]string{"-d", comp, dst})
	if err == nil {
		t.Fatal("decompressing a corrupt container succeeded")
	}
	if code := exitCode(err); code != exitCorrupt {
		t.Fatalf("exit code = %d, want %d (corrupt): %v", code, exitCorrupt, err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatal("corrupt decode left a destination file")
	}
}

func TestCompressOutputIsAtomicOnOverwrite(t *testing.T) {
	// A failed decompress run must leave a pre-existing destination
	// untouched, not truncated.
	dir := t.TempDir()
	dst := filepath.Join(dir, "restored.dat")
	previous := []byte("previous content that must survive")
	if err := os.WriteFile(dst, previous, 0o644); err != nil {
		t.Fatal(err)
	}
	bogus := filepath.Join(dir, "bogus.clzs")
	if err := os.WriteFile(bogus, []byte("CLZS\x01\x00 nonsense tail"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-d", bogus, dst}); err == nil {
		t.Fatal("bogus input decoded")
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, previous) {
		t.Fatal("failed run clobbered the existing destination")
	}
}

func TestResumeCLI(t *testing.T) {
	dir := t.TempDir()
	input := datasets.CFiles(64<<10, 5)
	in := filepath.Join(dir, "input.dat")
	if err := os.WriteFile(in, input, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.clzs")

	// Interrupt a durable run mid-stream with a torn write, the way a
	// crashed `culzss -resume` would leave the file system.
	p := core.Params{Injector: faults.New(7).TornWriteAt(20 << 10)}
	w, err := durable.Create(out, p, durable.Options{Stream: core.StreamOptions{SegmentSize: 8192, Codec: "v1"}})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := w.Write(input)
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Fatal("injected crash never surfaced")
	}
	if _, err := os.Stat(durable.PartialPath(out)); err != nil {
		t.Fatalf("partial missing after crash: %v", err)
	}

	// The real CLI picks the partial up and completes the stream.
	if err := run([]string{"-resume", "-codec", "v1", "-segment", "8192", in, out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(durable.PartialPath(out)); !os.IsNotExist(err) {
		t.Fatal("partial survived a completed resume")
	}

	// And the result must equal an uninterrupted run.
	ref := filepath.Join(dir, "ref.clzs")
	if err := run([]string{"-stream", "-codec", "v1", "-segment", "8192", in, ref}); err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatalf("resumed CLI output differs from uninterrupted run (%d vs %d bytes)",
			len(gotBytes), len(refBytes))
	}
	back := filepath.Join(dir, "back.dat")
	if err := run([]string{"-d", out, back}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, input) {
		t.Fatal("decoded output differs from input")
	}
}

func TestResumeFlagValidation(t *testing.T) {
	if err := run([]string{"-resume", "-d", "x", "y"}); err == nil {
		t.Fatal("-resume -d accepted")
	}
	if err := run([]string{"-resume", "-", "-"}); err == nil {
		t.Fatal("-resume to stdout accepted")
	}
}

func TestResumeFreshRunCompresses(t *testing.T) {
	// -resume with no existing partial is just a durable fresh run.
	dir := t.TempDir()
	in, input := writeInput(t, dir)
	out := filepath.Join(dir, "out.clzs")
	if err := run([]string{"-resume", "-codec", "v1", "-segment", "8192", "-commit-every", "2", in, out}); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "back.dat")
	if err := run([]string{"-d", out, back}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, input) {
		t.Fatal("round trip mismatch")
	}
}
