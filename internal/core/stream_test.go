package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"culzss/internal/codec"
	"culzss/internal/datasets"
	"culzss/internal/lzss"
)

// --- framed round trips -------------------------------------------------

func TestFramedStreamRoundTripVersions(t *testing.T) {
	input := datasets.KernelTarball(300<<10, 11) // > 4 segments at 64 KiB
	for _, c := range append([]labelledCodec{{codec.Auto, codec.Auto}}, labelledCodecs...) {
		t.Run(c.label, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriterOptions(&buf, Params{}, StreamOptions{Codec: c.name, SegmentSize: 64 << 10})
			// Dribble in odd-sized writes to exercise segment cutting.
			for off := 0; off < len(input); {
				n := 7777
				if off+n > len(input) {
					n = len(input) - off
				}
				if _, err := w.Write(input[off : off+n]); err != nil {
					t.Fatal(err)
				}
				off += n
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if buf.Len() >= len(input) {
				t.Fatalf("framed stream not compressed: %d >= %d", buf.Len(), len(input))
			}
			r, err := NewReader(&buf, Params{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, input) {
				t.Fatal("framed round trip mismatch")
			}
		})
	}
}

func TestFramedStreamSegmentBoundarySizes(t *testing.T) {
	const seg = 8 << 10
	for _, n := range []int{0, 1, seg - 1, seg, seg + 1, 3*seg - 1, 3 * seg, 3*seg + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			input := datasets.CFiles(n, int64(n)+1)
			var buf bytes.Buffer
			w := NewWriterOptions(&buf, Params{}, StreamOptions{Codec: "v1", SegmentSize: seg})
			if _, err := w.Write(input); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(&buf, Params{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, input) {
				t.Fatalf("n=%d: round trip mismatch", n)
			}
		})
	}
}

func TestFramedStreamDeterministic(t *testing.T) {
	input := datasets.Dictionary(200<<10, 3)
	frame := func() []byte {
		var buf bytes.Buffer
		w := NewWriterOptions(&buf, Params{HostWorkers: 4}, StreamOptions{Codec: "v2", SegmentSize: 32 << 10})
		if _, err := w.Write(input); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(frame(), frame()) {
		t.Fatal("concurrent segment pipeline produced non-deterministic framed output")
	}
}

func TestFramedStreamStatsMerge(t *testing.T) {
	var st lzss.SearchStats
	input := datasets.CFiles(100<<10, 4)
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{Stats: &st, HostWorkers: 4},
		StreamOptions{Codec: "cpu", SegmentSize: 16 << 10})
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Comparisons == 0 {
		t.Fatal("Stats not merged from segment workers")
	}
}

// --- Close semantics (gzip.Writer parity) -------------------------------

func TestWriterCloseEmptyInput(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Params{})
	if err := w.Close(); err != nil {
		t.Fatalf("Close on empty writer: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty close must still emit a valid (zero-segment) stream")
	}
	r, err := NewReader(&buf, Params{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty stream decoded to %d bytes", len(got))
	}
}

func TestWriterDoubleCloseIsNoop(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{}, StreamOptions{Codec: "cpu"})
	if _, err := io.WriteString(w, "some plaintext for the stream"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	emitted := buf.Len()
	for i := 0; i < 3; i++ {
		if err := w.Close(); err != nil {
			t.Fatalf("Close #%d: %v (want nil no-op)", i+2, err)
		}
	}
	if buf.Len() != emitted {
		t.Fatal("repeated Close emitted extra bytes")
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
}

// failingWriter errors once its byte budget is exhausted.
type failingWriter struct {
	budget int
	err    error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, f.err
	}
	n := len(p)
	if n > f.budget {
		n = f.budget
	}
	f.budget -= n
	if n < len(p) {
		return n, f.err
	}
	return n, nil
}

func TestWriterUnderlyingErrorPaths(t *testing.T) {
	sentinel := errors.New("disk full")
	input := datasets.CFiles(64<<10, 5)

	// Header write fails immediately.
	t.Run("header", func(t *testing.T) {
		w := NewWriterOptions(&failingWriter{budget: 0, err: sentinel}, Params{}, StreamOptions{Codec: "cpu"})
		_, werr := w.Write(input)
		cerr := w.Close()
		if !errors.Is(werr, sentinel) && !errors.Is(cerr, sentinel) {
			t.Fatalf("header failure not surfaced: write=%v close=%v", werr, cerr)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close after failed Close must be a nil no-op, got %v", err)
		}
	})

	// Mid-stream frame write fails; Write eventually errors and Close must
	// not deadlock against a full pipeline.
	t.Run("mid-stream", func(t *testing.T) {
		w := NewWriterOptions(&failingWriter{budget: 100, err: sentinel},
			Params{HostWorkers: 2}, StreamOptions{Codec: "cpu", SegmentSize: 4 << 10})
		var werr error
		for i := 0; i < 64 && werr == nil; i++ {
			_, werr = w.Write(input[:4<<10])
		}
		cerr := w.Close()
		if !errors.Is(werr, sentinel) && !errors.Is(cerr, sentinel) {
			t.Fatalf("mid-stream failure not surfaced: write=%v close=%v", werr, cerr)
		}
	})

	// Trailer write fails (budget covers header + frames, trailer tips it).
	t.Run("trailer", func(t *testing.T) {
		var probe bytes.Buffer
		w := NewWriterOptions(&probe, Params{}, StreamOptions{Codec: "cpu"})
		if _, err := w.Write(input[:1024]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2 := NewWriterOptions(&failingWriter{budget: probe.Len() - 1, err: sentinel}, Params{}, StreamOptions{Codec: "cpu"})
		if _, err := w2.Write(input[:1024]); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); !errors.Is(err, sentinel) {
			t.Fatalf("trailer failure not surfaced by Close: %v", err)
		}
	})
}

// Compression errors inside a worker (not the underlying writer) must also
// surface and tear the pool down cleanly.
func TestWriterCompressionErrorMidStream(t *testing.T) {
	var buf bytes.Buffer
	// Window 1024 is invalid for the GPU kernels: every segment fails.
	w := NewWriterOptions(&buf, Params{Window: 1024, HostWorkers: 2},
		StreamOptions{Codec: "v1", SegmentSize: 4 << 10})
	input := datasets.CFiles(64<<10, 6)
	var werr error
	for i := 0; i < 16 && werr == nil; i++ {
		_, werr = w.Write(input[i*4<<10 : (i+1)*4<<10])
	}
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Fatal("compression error never surfaced")
	}
}

// --- Reader behaviour ---------------------------------------------------

func TestReaderLegacyContainerStillOpens(t *testing.T) {
	input := datasets.Dictionary(48<<10, 7)
	container, _, err := Compress(input, "v2", Params{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(container), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(input) {
		t.Fatalf("legacy Reader.Len = %d, want %d", r.Len(), len(input))
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, input) {
		t.Fatalf("legacy container round trip failed: %v", err)
	}
}

func TestReaderRejectsCorruptFrame(t *testing.T) {
	input := datasets.CFiles(40<<10, 8)
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{}, StreamOptions{Codec: "cpu", SegmentSize: 8 << 10})
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	// Flip a byte inside a container payload: the per-frame CRC must trip.
	corrupt := append([]byte(nil), stream...)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := drainStream(corrupt); err == nil {
		t.Fatal("corrupt frame decoded cleanly")
	}

	// Truncate mid-stream: must error (not silently EOF).
	if _, err := drainStream(stream[:len(stream)/2]); err == nil {
		t.Fatal("truncated stream decoded cleanly")
	}

	// Drop the trailer only: the reader must notice the missing trailer.
	if _, err := drainStream(stream[:len(stream)-5]); err == nil {
		t.Fatal("trailer-less stream decoded cleanly")
	}
}

func drainStream(stream []byte) ([]byte, error) {
	r, err := NewReader(bytes.NewReader(stream), Params{})
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

func TestReaderLenFramed(t *testing.T) {
	input := []byte(strings.Repeat("len probe ", 1000))
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{}, StreamOptions{Codec: "cpu", SegmentSize: 4 << 10})
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != nil {
		t.Fatal(err)
	}
	// After one byte, the rest of the first segment is buffered.
	if want := 4<<10 - 1; r.Len() != want {
		t.Fatalf("framed Reader.Len = %d, want %d", r.Len(), want)
	}
}

// --- bounded memory (the acceptance criterion) --------------------------

// patternSource deterministically generates a compressible synthetic
// stream without ever materialising it.
type patternSource struct {
	remaining int
	counter   uint64
}

func (p *patternSource) Read(b []byte) (int, error) {
	if p.remaining == 0 {
		return 0, io.EOF
	}
	n := len(b)
	if n > p.remaining {
		n = p.remaining
	}
	for i := 0; i < n; i++ {
		// 64-byte repeating lines with a slowly-advancing counter: highly
		// compressible, position-dependent, cheap to regenerate.
		pos := p.counter + uint64(i)
		b[i] = byte("log line #%d: sensor nominal, pressure steady, temp ok........\n"[pos%62]) ^ byte(pos>>16)
	}
	p.counter += uint64(n)
	p.remaining -= n
	return n, nil
}

// TestWriterBoundedMemory64MiB compresses a 64 MiB synthetic stream with
// SegmentSize = 1 MiB and asserts the pipeline's peak in-flight segment
// bytes stay O(SegmentSize × HostWorkers), then round-trips the framed
// output byte-identically through the incremental Reader — comparing
// against a regenerated stream so neither side ever buffers the payload.
func TestWriterBoundedMemory64MiB(t *testing.T) {
	const (
		totalLen = 64 << 20
		segSize  = 1 << 20
		workers  = 4
	)
	var framed bytes.Buffer
	w := NewWriterOptions(&framed, Params{HostWorkers: workers},
		StreamOptions{Codec: "v1", SegmentSize: segSize})
	if _, err := io.Copy(w, &patternSource{remaining: totalLen}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The memory bound: at most `workers` segments queued for emission,
	// one in the emitter's hands, one mid-handoff in flush.
	if max, bound := w.maxInFlight(), (workers+2)*segSize; max > bound {
		t.Fatalf("peak in-flight segment bytes %d exceed O(SegmentSize x HostWorkers) bound %d", max, bound)
	}
	if framed.Len() >= totalLen/2 {
		t.Fatalf("synthetic stream barely compressed: %d of %d", framed.Len(), totalLen)
	}

	// Incremental round trip, streaming comparison.
	r, err := NewReader(&framed, Params{})
	if err != nil {
		t.Fatal(err)
	}
	want := &patternSource{remaining: totalLen}
	got := make([]byte, 256<<10)
	ref := make([]byte, 256<<10)
	var off int64
	for {
		n, err := r.Read(got)
		if n > 0 {
			if _, rerr := io.ReadFull(want, ref[:n]); rerr != nil {
				t.Fatalf("reference stream ended early at offset %d: %v", off, rerr)
			}
			if !bytes.Equal(got[:n], ref[:n]) {
				t.Fatalf("round trip mismatch at offset %d", off)
			}
			off += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if off != totalLen {
		t.Fatalf("decoded %d bytes, want %d", off, totalLen)
	}
	if want.remaining != 0 {
		t.Fatalf("reference stream has %d bytes left over", want.remaining)
	}
}

// --- concurrency (run with -race) ---------------------------------------

// TestConcurrentFramedWriters drives many independent Writers at once:
// the segment pipeline must be safe across instances.
func TestConcurrentFramedWriters(t *testing.T) {
	inputs := [][]byte{
		datasets.CFiles(64<<10, 21),
		datasets.DEMap(64<<10, 22),
		datasets.HighlyCompressible(64<<10, 23),
		datasets.Dictionary(64<<10, 24),
	}
	names := []string{"v1", "v2", "cpu", "pthread", codec.Auto}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			input := inputs[g%len(inputs)]
			var buf bytes.Buffer
			w := NewWriterOptions(&buf, Params{HostWorkers: 2},
				StreamOptions{Codec: names[g%len(names)], SegmentSize: 16 << 10})
			if _, err := w.Write(input); err != nil {
				errs <- err
				return
			}
			if err := w.Close(); err != nil {
				errs <- err
				return
			}
			got, err := drainStream(buf.Bytes())
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, input) {
				errs <- fmt.Errorf("writer %d: round trip mismatch", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWriterTeardownAfterError hammers the error path: a failing sink
// must never leave Close hanging on the worker pool, whatever the timing.
func TestWriterTeardownAfterError(t *testing.T) {
	input := datasets.CFiles(32<<10, 25)
	for trial := 0; trial < 8; trial++ {
		w := NewWriterOptions(&failingWriter{budget: 50 * trial, err: errors.New("boom")},
			Params{HostWorkers: 3}, StreamOptions{Codec: "cpu", SegmentSize: 2 << 10})
		for i := 0; i < 16; i++ {
			if _, err := w.Write(input[i*2<<10 : (i+1)*2<<10]); err != nil {
				break
			}
		}
		_ = w.Close() // must return, error or not
		if err := w.Close(); err != nil {
			t.Fatalf("trial %d: second Close = %v, want nil", trial, err)
		}
	}
}
