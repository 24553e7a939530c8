package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/format"
)

func writeInput(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	data := datasets.CFiles(64<<10, 5)
	path := filepath.Join(dir, "input.dat")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestCompressDecompressCycle(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	comp := filepath.Join(dir, "out.clz")
	back := filepath.Join(dir, "back.dat")

	if err := run([]string{"-codec", "v1", in, comp}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-d", comp, back}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestDefaultOutputNames(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	if err := run([]string{"-codec", "v2", in}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(in + ".clz"); err != nil {
		t.Fatalf("default .clz output missing: %v", err)
	}
	// Decompressing in place strips .clz but would overwrite the input;
	// move it first.
	moved := filepath.Join(dir, "copy.clz")
	if err := os.Rename(in+".clz", moved); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-d", moved}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "copy"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestVerifyAndStatsFlags(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeInput(t, dir)
	if err := run([]string{"-verify", "-stats", "-codec", "cpu", in, filepath.Join(dir, "s.clz")}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", "-stats", "-codec", "pthread", in, filepath.Join(dir, "p.clz")}); err != nil {
		t.Fatal(err)
	}
}

func TestInfoFlag(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeInput(t, dir)
	comp := filepath.Join(dir, "c.clz")
	if err := run([]string{in, comp}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-info", comp}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-info", in}); err == nil {
		t.Fatal("-info accepted a non-container")
	}
}

func TestDumpFlag(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeInput(t, dir)
	comp := filepath.Join(dir, "c.clz")
	if err := run([]string{"-codec", "v1", in, comp}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dump", comp}); err != nil {
		t.Fatal(err)
	}
	// -dump only understands the CULZSS token streams.
	serial := filepath.Join(dir, "s.clz")
	if err := run([]string{"-codec", "cpu", in, serial}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dump", serial}); err == nil {
		t.Fatal("-dump accepted a bit-packed container")
	}
}

func TestTuningFlags(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	comp := filepath.Join(dir, "w.clz")
	if err := run([]string{"-codec", "v1", "-window", "64", "-tpb", "64", "-chunk", "2048", in, comp}); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "wback.dat")
	if err := run([]string{"-d", comp, back}); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(back)
	if !bytes.Equal(got, data) {
		t.Fatal("tuned round trip mismatch")
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeInput(t, dir)
	cases := [][]string{
		{},                                     // no args
		{"a", "b", "c"},                        // too many args
		{"-codec", "bogus", in},                // bad codec
		{filepath.Join(dir, "missing"), "out"}, // missing input
		{"-codec", "v1", "-window", "4096", in, filepath.Join(dir, "x.clz")}, // GPU window too big
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestProfileFlag(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeInput(t, dir)
	if err := run([]string{"-profile", "-codec", "v2", in, filepath.Join(dir, "pr.clz")}); err != nil {
		t.Fatal(err)
	}
	// Host codecs report "no kernel" but still succeed.
	if err := run([]string{"-profile", "-codec", "cpu", in, filepath.Join(dir, "pr2.clz")}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamMode(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	framed := filepath.Join(dir, "framed.clzs")
	if err := run([]string{"-stream", "-segment", "8192", "-stats", "-codec", "v1", in, framed}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(framed)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:4]) != "CLZS" {
		t.Fatalf("-stream did not emit a framed stream (magic %q)", raw[:4])
	}
	if len(raw) >= len(data) {
		t.Fatal("framed stream not compressed")
	}
	// -d sniffs the magic, so the same decompress path opens framed streams.
	back := filepath.Join(dir, "framed.out")
	if err := run([]string{"-d", framed, back}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("framed round trip failed: %v", err)
	}
	// -info understands framed streams too.
	if err := run([]string{"-info", framed}); err != nil {
		t.Fatalf("-info on framed stream: %v", err)
	}
}

// The -codec flag routes stream segments by registry name; the sniffing
// decompress path reads adaptive and raw-store streams back unchanged.
func TestStreamCodecFlag(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	for _, name := range []string{"auto", "raw"} {
		out := filepath.Join(dir, name+".clzs")
		if err := run([]string{"-stream", "-segment", "8192", "-codec", name, in, out}); err != nil {
			t.Fatalf("-codec %s: %v", name, err)
		}
		back := filepath.Join(dir, name+".out")
		if err := run([]string{"-d", out, back}); err != nil {
			t.Fatalf("-codec %s decode: %v", name, err)
		}
		if got, err := os.ReadFile(back); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("-codec %s round trip failed: %v", name, err)
		}
	}
	if err := run([]string{"-stream", "-codec", "banana", in, filepath.Join(dir, "x.clzs")}); err == nil {
		t.Fatal("unknown -codec name accepted")
	}
}

func TestStreamModePipes(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	inFile, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	defer inFile.Close()
	outPath := filepath.Join(dir, "piped.clzs")
	outFile, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	oldIn, oldOut := os.Stdin, os.Stdout
	os.Stdin, os.Stdout = inFile, outFile
	err = run([]string{"-stream", "-codec", "cpu", "-", "-"})
	os.Stdin, os.Stdout = oldIn, oldOut
	outFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Decompress the framed stream back through stdin/stdout.
	cIn, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cIn.Close()
	backPath := filepath.Join(dir, "piped.out")
	backFile, err := os.Create(backPath)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdin, os.Stdout = cIn, backFile
	err = run([]string{"-d", "-", "-"})
	os.Stdin, os.Stdout = oldIn, oldOut
	backFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(backPath)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("piped framed round trip failed: %v", err)
	}
}

func TestPipeModePaths(t *testing.T) {
	// Exercise "-" handling through temp-file stdin/stdout redirection.
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	inFile, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	defer inFile.Close()
	outPath := filepath.Join(dir, "piped.clz")
	outFile, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	oldIn, oldOut := os.Stdin, os.Stdout
	os.Stdin, os.Stdout = inFile, outFile
	err = run([]string{"-codec", "v1", "-", "-"})
	os.Stdin, os.Stdout = oldIn, oldOut
	outFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "piped.out")
	if err := run([]string{"-d", outPath, back}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("pipe round trip failed: %v", err)
	}
}

// damageStream compresses data as a framed stream, applies corrupt to the
// stream bytes, and writes the result to a new file in dir.
func damageStream(t *testing.T, dir string, in string, segment int, corrupt func([]byte) []byte) string {
	t.Helper()
	framed := filepath.Join(dir, "framed.clzs")
	if err := run([]string{"-stream", "-codec", "cpu", "-segment", itoa(segment), in, framed}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(framed)
	if err != nil {
		t.Fatal(err)
	}
	damaged := filepath.Join(dir, "damaged.clzs")
	if err := os.WriteFile(damaged, corrupt(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return damaged
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// TestSalvageFlag: a mid-stream bit flip fails a strict decode with the
// corrupt exit code, while -salvage recovers every segment but the
// damaged one and still signals the damage.
func TestSalvageFlag(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	const segment = 16 << 10
	damaged := damageStream(t, dir, in, segment, func(raw []byte) []byte {
		raw[len(raw)/2] ^= 0x40 // inside some segment's container
		return raw
	})

	// Strict decode refuses the stream and classifies it as corrupt.
	strictOut := filepath.Join(dir, "strict.dat")
	err := run([]string{"-d", damaged, strictOut})
	if err == nil {
		t.Fatal("strict decode of damaged stream succeeded")
	}
	if code := exitCode(err); code != exitCorrupt {
		t.Fatalf("strict decode: exit code %d, want %d (err: %v)", code, exitCorrupt, err)
	}

	// Salvage decode writes the intact segments and still fails loudly.
	salvOut := filepath.Join(dir, "salvaged.dat")
	err = run([]string{"-d", "-salvage", damaged, salvOut})
	if err == nil {
		t.Fatal("salvage decode reported success for a damaged stream")
	}
	if code := exitCode(err); code != exitCorrupt {
		t.Fatalf("salvage decode: exit code %d, want %d (err: %v)", code, exitCorrupt, err)
	}
	got, rerr := os.ReadFile(salvOut)
	if rerr != nil {
		t.Fatal(rerr)
	}
	// Exactly one segment should be missing: the recovered stream must
	// equal the original with one whole segment excised.
	if bytes.Equal(got, data) {
		t.Fatal("salvage claims damage but recovered everything")
	}
	found := false
	for off := 0; off < len(data); off += segment {
		end := off + segment
		if end > len(data) {
			end = len(data)
		}
		without := append(append([]byte{}, data[:off]...), data[end:]...)
		if bytes.Equal(got, without) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("salvaged output (%d bytes) is not the original (%d bytes) minus one segment",
			len(got), len(data))
	}
}

// TestExitCodeTruncated: a stream cut short is classified as truncated,
// and salvage still recovers every complete segment.
func TestExitCodeTruncated(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	const segment = 16 << 10
	damaged := damageStream(t, dir, in, segment, func(raw []byte) []byte {
		return raw[:len(raw)-5] // cuts into the trailer (9 bytes), leaving every segment intact
	})

	strictOut := filepath.Join(dir, "strict.dat")
	err := run([]string{"-d", damaged, strictOut})
	if err == nil {
		t.Fatal("strict decode of truncated stream succeeded")
	}
	if code := exitCode(err); code != exitTruncated {
		t.Fatalf("strict decode: exit code %d, want %d (err: %v)", code, exitTruncated, err)
	}

	salvOut := filepath.Join(dir, "salvaged.dat")
	err = run([]string{"-d", "-salvage", damaged, salvOut})
	if err == nil {
		t.Fatal("salvage decode reported success for a truncated stream")
	}
	if code := exitCode(err); code != exitTruncated {
		t.Fatalf("salvage decode: exit code %d, want %d (err: %v)", code, exitTruncated, err)
	}
	got, rerr := os.ReadFile(salvOut)
	if rerr != nil {
		t.Fatal(rerr)
	}
	// Only the trailer was lost; every segment should be intact.
	if !bytes.Equal(got, data) {
		t.Fatalf("salvage of trailer-truncated stream recovered %d bytes, want all %d", len(got), len(data))
	}
}

// TestExitCodeOverlongClaimIsCorrupt: frame 2 of 4 claims one byte more
// than the rest of the stream holds, yet frame 3 and the trailer follow
// intact. That is in-stream corruption, so -d -salvage exits with the
// corrupt code, not the truncated one.
func TestExitCodeOverlongClaimIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "input.dat")
	if err := os.WriteFile(in, datasets.CFiles(16<<10, 5), 0o644); err != nil {
		t.Fatal(err)
	}
	damaged := damageStream(t, dir, in, 4<<10, func(raw []byte) []byte {
		p := len(format.StreamMagic) + 2
		_, n := binary.Uvarint(raw[p:]) // segment size
		p += n
		for i := 0; ; i++ {
			p++ // the marker, then the index and rawLen varints
			for f := 0; f < 2; f++ {
				_, n = binary.Uvarint(raw[p:])
				p += n
			}
			compLen, n := binary.Uvarint(raw[p:])
			if i < 2 {
				p += n + 4 + int(compLen)
				continue
			}
			claim := uint64(len(raw)-(p+n+4)) + 1
			if w := binary.PutUvarint(make([]byte, binary.MaxVarintLen64), claim); w != n {
				t.Fatalf("claim %d needs a %d-byte varint, frame 2 has %d bytes", claim, w, n)
			}
			binary.PutUvarint(raw[p:], claim)
			return raw
		}
	})
	err := run([]string{"-d", "-salvage", damaged, filepath.Join(dir, "salvaged.dat")})
	if code := exitCode(err); code != exitCorrupt {
		t.Fatalf("salvage decode: exit code %d, want %d (err: %v)", code, exitCorrupt, err)
	}
}

// TestExitCodeGeneric: non-format failures stay on the generic exit code.
func TestExitCodeGeneric(t *testing.T) {
	err := run([]string{filepath.Join(t.TempDir(), "missing"), "out"})
	if err == nil {
		t.Fatal("expected error for missing input")
	}
	if code := exitCode(err); code != exitGeneric {
		t.Fatalf("exit code %d, want %d", code, exitGeneric)
	}
}

// parityStream compresses in with -stream -parity and returns the path
// plus the raw stream bytes.
func parityStream(t *testing.T, dir, in string, segment int, parity string) (string, []byte) {
	t.Helper()
	framed := filepath.Join(dir, "parity.clzs")
	if err := run([]string{"-stream", "-codec", "cpu", "-segment", itoa(segment),
		"-parity", parity, in, framed}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(framed)
	if err != nil {
		t.Fatal(err)
	}
	return framed, raw
}

// TestParityFlagRepairs: a -parity stream with a mid-stream bit flip is
// decoded completely by -d -salvage — the damage heals from parity and
// the run exits 0, unlike the parity-less TestSalvageFlag case.
func TestParityFlagRepairs(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	const segment = 16 << 10
	framed, raw := parityStream(t, dir, in, segment, "2+1")

	// Clean round trip first, parity absorbed transparently.
	cleanOut := filepath.Join(dir, "clean.dat")
	if err := run([]string{"-d", framed, cleanOut}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cleanOut); !bytes.Equal(got, data) {
		t.Fatal("clean parity stream round trip mismatch")
	}

	damaged := filepath.Join(dir, "damaged.clzs")
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(damaged, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict decode still refuses the damage.
	if err := run([]string{"-d", damaged, filepath.Join(dir, "strict.dat")}); err == nil {
		t.Fatal("strict decode of damaged stream succeeded")
	}

	// -salvage heals it: complete output, exit 0.
	healedOut := filepath.Join(dir, "healed.dat")
	if err := run([]string{"-d", "-salvage", "-stats", damaged, healedOut}); err != nil {
		t.Fatalf("salvage of a repairable stream failed: %v", err)
	}
	got, err := os.ReadFile(healedOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("healed output differs from the original")
	}
}

// TestParityFlagBeyondCapacity: losses past the parity budget still exit
// nonzero with the corrupt classification.
func TestParityFlagBeyondCapacity(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	const segment = 16 << 10
	_, raw := parityStream(t, dir, in, segment, "2+1")

	// Smear a wide mid-stream region: more than one frame of a 2+1 group
	// dies, which is past what a single parity shard can rebuild.
	for i := len(raw) / 4; i < len(raw)/2; i++ {
		raw[i] ^= 0x5a
	}
	damaged := filepath.Join(dir, "damaged.clzs")
	if err := os.WriteFile(damaged, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "partial.dat")
	err := run([]string{"-d", "-salvage", damaged, out})
	if err == nil {
		t.Fatal("salvage reported success past the parity budget")
	}
	if code := exitCode(err); code != exitCorrupt {
		t.Fatalf("exit code %d, want %d (err: %v)", code, exitCorrupt, err)
	}
	if got, _ := os.ReadFile(out); len(got) == 0 || len(got) >= len(data) {
		t.Fatalf("salvaged %d bytes of %d; want a strict non-empty subset", len(got), len(data))
	}
}

func TestParityFlagValidation(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeInput(t, dir)
	out := filepath.Join(dir, "out.clzs")
	for _, bad := range [][]string{
		{"-stream", "-parity", "nope", in, out},
		{"-stream", "-parity", "0+1", in, out},
		{"-stream", "-parity", "4+0", in, out},
		{"-stream", "-parity", "9999+1", in, out},
		{"-parity", "4+2", in, out},                   // needs -stream/-resume
		{"-d", "-salvage", "-parity", "4+2", in, out}, // decompression
	} {
		if err := run(bad); err == nil {
			t.Fatalf("args %v accepted", bad)
		}
	}
}

// TestParityResumeFlag: -resume -parity continues an interrupted parity
// stream and the finished file decodes cleanly.
func TestParityResumeFlag(t *testing.T) {
	dir := t.TempDir()
	in, data := writeInput(t, dir)
	out := filepath.Join(dir, "out.clzs")
	const segment = 16 << 10

	// A full durable run with parity (no interruption).
	if err := run([]string{"-resume", "-codec", "cpu", "-segment", itoa(segment),
		"-parity", "2+1", in, out}); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "back.dat")
	if err := run([]string{"-d", out, back}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(back); !bytes.Equal(got, data) {
		t.Fatal("durable parity stream round trip mismatch")
	}
}
