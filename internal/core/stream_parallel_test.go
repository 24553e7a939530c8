package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"culzss/internal/datasets"
	"culzss/internal/format"
	"culzss/internal/obs"
)

// --- parallel pipelined decode: differential + discipline suite ---------
//
// The contract under test: a Reader with any pipeline geometry is
// observationally identical to the HostWorkers=1 Reader — same bytes,
// same errors, same corruption/repair records in the same order — across
// clean streams, the corruption matrix, truncation, and parity repair.

const pplSeg = 8 << 10

// writeParallelStream frames input at segSize with optional parity.
func writeParallelStream(t testing.TB, input []byte, segSize int, parity ParityConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{},
		StreamOptions{Codec: "v2", SegmentSize: segSize, Parity: parity})
	if _, err := w.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeOutcome is everything externally observable about one decode.
type decodeOutcome struct {
	out      []byte
	err      string
	corrupt  []string // one formatted record per damaged region, in order
	repaired []string
}

// decodeWith runs one full decode with the given geometry and captures
// the outcome. Callback order is captured too: the records delivered via
// OnCorrupt/OnRepair must match the accessor slices exactly.
func decodeWith(t testing.TB, stream []byte, o ReaderOptions) decodeOutcome {
	t.Helper()
	var cb decodeOutcome
	o.OnCorrupt = func(cse *format.CorruptSegmentError) {
		cb.corrupt = append(cb.corrupt, cse.Error())
	}
	o.OnRepair = func(rse *format.RepairedSegmentError) {
		cb.repaired = append(cb.repaired, rse.Error())
	}
	r, err := NewReaderOptions(bytes.NewReader(stream), Params{}, o)
	if err != nil {
		return decodeOutcome{err: err.Error()}
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	oc := decodeOutcome{out: out}
	if err != nil {
		oc.err = err.Error()
	}
	for _, cse := range r.CorruptSegments() {
		oc.corrupt = append(oc.corrupt, cse.Error())
	}
	for _, rse := range r.RepairedSegments() {
		oc.repaired = append(oc.repaired, rse.Error())
	}
	// The callbacks fire at delivery, in stream order: they must have
	// seen exactly the records the accessors report.
	if !equalStrings(cb.corrupt, oc.corrupt) {
		t.Fatalf("OnCorrupt saw %v, accessors report %v", cb.corrupt, oc.corrupt)
	}
	if !equalStrings(cb.repaired, oc.repaired) {
		t.Fatalf("OnRepair saw %v, accessors report %v", cb.repaired, oc.repaired)
	}
	return oc
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffOutcomes fails the test unless two outcomes are identical.
func diffOutcomes(t *testing.T, label string, base, got decodeOutcome) {
	t.Helper()
	if !bytes.Equal(base.out, got.out) {
		t.Errorf("%s: output differs: %d bytes vs baseline %d", label, len(got.out), len(base.out))
	}
	if base.err != got.err {
		t.Errorf("%s: error %q vs baseline %q", label, got.err, base.err)
	}
	if !equalStrings(base.corrupt, got.corrupt) {
		t.Errorf("%s: corrupt records %v vs baseline %v", label, got.corrupt, base.corrupt)
	}
	if !equalStrings(base.repaired, got.repaired) {
		t.Errorf("%s: repaired records %v vs baseline %v", label, got.repaired, base.repaired)
	}
}

// TestParallelReaderDifferentialClean: every pipeline geometry serves
// the same bytes as the serial Reader on intact streams, across sizes
// that straddle segment boundaries.
func TestParallelReaderDifferentialClean(t *testing.T) {
	for _, size := range []int{0, 1, pplSeg - 1, pplSeg, pplSeg + 1, 7*pplSeg + pplSeg/3} {
		input := datasets.CFiles(size, 41)
		stream := writeParallelStream(t, input, pplSeg, ParityConfig{})
		base := decodeWith(t, stream, ReaderOptions{HostWorkers: 1})
		if base.err != "" {
			t.Fatalf("size %d: baseline failed: %s", size, base.err)
		}
		if !bytes.Equal(base.out, input) {
			t.Fatalf("size %d: baseline did not round-trip", size)
		}
		for _, o := range []ReaderOptions{
			{HostWorkers: 2},
			{HostWorkers: 8},
			{HostWorkers: 8, Prefetch: 1},
			{HostWorkers: 8, Prefetch: 32},
			{HostWorkers: 8, MaxInFlight: 2},
			{HostWorkers: 3, MaxInFlight: 16, Prefetch: 2},
		} {
			label := fmt.Sprintf("size %d workers %d prefetch %d inflight %d",
				size, o.HostWorkers, o.Prefetch, o.MaxInFlight)
			diffOutcomes(t, label, base, decodeWith(t, stream, o))
		}
	}
}

// TestParallelReaderDifferentialCorruption: smash each record of a
// salvageable stream in turn (and a couple of multi-record patterns) —
// the parallel Reader must record and skip exactly what the serial one
// does, and serve the identical remaining bytes.
func TestParallelReaderDifferentialCorruption(t *testing.T) {
	input := datasets.CFiles(9*pplSeg-pplSeg/2, 77)
	stream := writeParallelStream(t, input, pplSeg, ParityConfig{})
	recs := streamRecords(t, stream)
	if len(recs) < 5 {
		t.Fatalf("expected several records, got %d", len(recs))
	}
	cases := make(map[string][]byte, len(recs)+2)
	for i, rec := range recs {
		cases[fmt.Sprintf("smash-rec-%d", i)] = smashRec(stream, rec)
	}
	cases["smash-two-adjacent"] = smashRec(smashRec(stream, recs[2]), recs[3])
	cases["smash-first-and-last"] = smashRec(smashRec(stream, recs[0]), recs[len(recs)-1])
	for name, damaged := range cases {
		base := decodeWith(t, damaged, ReaderOptions{Salvage: true, HostWorkers: 1})
		for _, workers := range []int{2, 8} {
			got := decodeWith(t, damaged, ReaderOptions{Salvage: true, HostWorkers: workers})
			diffOutcomes(t, fmt.Sprintf("%s workers %d", name, workers), base, got)
		}
	}
}

// TestParallelReaderDifferentialTruncation: cut the stream at assorted
// offsets; under salvage both geometries must deliver the same prefix
// and the same truncation record, and without salvage the same error.
func TestParallelReaderDifferentialTruncation(t *testing.T) {
	input := datasets.CFiles(6*pplSeg, 13)
	stream := writeParallelStream(t, input, pplSeg, ParityConfig{})
	for _, cut := range []int{len(stream) - 1, len(stream) - 7, len(stream) * 3 / 4, len(stream) / 2, 64} {
		if cut <= 0 || cut >= len(stream) {
			continue
		}
		truncated := stream[:cut]
		for _, salvage := range []bool{true, false} {
			base := decodeWith(t, truncated, ReaderOptions{Salvage: salvage, HostWorkers: 1})
			got := decodeWith(t, truncated, ReaderOptions{Salvage: salvage, HostWorkers: 8})
			diffOutcomes(t, fmt.Sprintf("cut %d salvage %v", cut, salvage), base, got)
		}
	}
}

// TestParallelReaderDifferentialRepair: parity-protected stream with
// burst damage — repair must heal identically regardless of geometry,
// and the healed output must equal the original input.
func TestParallelReaderDifferentialRepair(t *testing.T) {
	input := datasets.CFiles(9*pplSeg-pplSeg/2, 77)
	stream := writeParallelStream(t, input, pplSeg, ParityConfig{K: 4, M: 2})
	recs := streamRecords(t, stream)
	// Damage two data records of the first group: within the M=2 budget.
	var data []streamRec
	for _, r := range recs {
		if !r.parity {
			data = append(data, r)
		}
	}
	if len(data) < 4 {
		t.Fatalf("expected >= 4 data records, got %d", len(data))
	}
	damaged := smashRec(smashRec(stream, data[0]), data[2])

	base := decodeWith(t, damaged, ReaderOptions{Repair: true, HostWorkers: 1})
	if base.err != "" {
		t.Fatalf("baseline repair failed: %s", base.err)
	}
	if !bytes.Equal(base.out, input) {
		t.Fatal("baseline repair did not restore the original bytes")
	}
	if len(base.repaired) == 0 || len(base.corrupt) != 0 {
		t.Fatalf("baseline: repaired %d corrupt %d, want repairs and no losses",
			len(base.repaired), len(base.corrupt))
	}
	for _, workers := range []int{2, 8} {
		got := decodeWith(t, damaged, ReaderOptions{Repair: true, HostWorkers: workers})
		diffOutcomes(t, fmt.Sprintf("repair workers %d", workers), base, got)
	}
}

// TestParallelReaderCancellationMidDecode: cancelling the context while
// segments are in flight surfaces the context error — never a corrupt
// record (cancellation is not data damage) — and the pipeline tears
// down cleanly (the race detector would flag leaked decode goroutines
// touching the reader after the test).
func TestParallelReaderCancellationMidDecode(t *testing.T) {
	input := datasets.CFiles(16*pplSeg, 3)
	stream := writeParallelStream(t, input, pplSeg, ParityConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	r, err := NewReaderOptions(bytes.NewReader(stream), Params{}, ReaderOptions{
		Context:     ctx,
		Salvage:     true, // must NOT convert cancellation into salvage records
		HostWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pplSeg/2)
	if _, err := r.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	cancel()
	var lastErr error
	for i := 0; i < 64; i++ {
		_, lastErr = r.Read(buf)
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("post-cancel read error = %v, want context.Canceled", lastErr)
	}
	if got := r.CorruptSegments(); len(got) != 0 {
		t.Fatalf("cancellation produced %d corrupt records: %v", len(got), got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelReaderCloseMidStream: Close abandons the stream, joins the
// pipeline, and flips Read to ErrReaderClosed.
func TestParallelReaderCloseMidStream(t *testing.T) {
	input := datasets.CFiles(12*pplSeg, 9)
	stream := writeParallelStream(t, input, pplSeg, ParityConfig{})
	r, err := NewReaderOptions(bytes.NewReader(stream), Params{}, ReaderOptions{HostWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if _, err := r.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, err := r.Read(buf); !errors.Is(err, ErrReaderClosed) {
		t.Fatalf("Read after Close = %v, want ErrReaderClosed", err)
	}
	// Close on a never-started and on a fully-drained Reader: no-ops.
	r2, err := NewReaderOptions(bytes.NewReader(stream), Params{}, ReaderOptions{HostWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	r3, err := NewReaderOptions(bytes.NewReader(stream), Params{}, ReaderOptions{HostWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := io.ReadAll(r3); err != nil || !bytes.Equal(out, input) {
		t.Fatalf("full drain: err %v, %d bytes", err, len(out))
	}
	if err := r3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelReaderScrapeWhileReading exercises the concurrent-scrape
// contract under the race detector: Stats, the record accessors, and a
// Prometheus exposition all race against an active pipelined decode.
func TestParallelReaderScrapeWhileReading(t *testing.T) {
	input := datasets.CFiles(24*pplSeg, 21)
	stream := writeParallelStream(t, input, pplSeg, ParityConfig{})
	reg := obs.NewRegistry()
	r, err := NewReaderOptions(bytes.NewReader(stream), Params{Obs: reg}, ReaderOptions{
		Salvage:     true,
		HostWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := r.Stats()
			if st.Segments < 0 || st.Bytes < 0 {
				panic("negative stats")
			}
			_ = r.CorruptSegments()
			_ = r.RepairedSegments()
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				panic(err)
			}
		}
	}()
	out, err := io.ReadAll(r)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, input) {
		t.Fatal("scraped decode did not round-trip")
	}
	st := r.Stats()
	if st.Segments != 24 || st.Bytes != len(input) {
		t.Fatalf("final stats %+v, want 24 segments / %d bytes", st, len(input))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"culzss_reader_segments_total 24",
		"culzss_reader_inflight_segments 0",
		"culzss_bufpool_hits_total",
	} {
		if !strings.Contains(sb.String(), series) {
			t.Errorf("exposition missing %q", series)
		}
	}
}

// TestParallelReaderMaxInFlightBound: the admission bound holds as a
// high-water mark, and bounds the worker pool from above.
func TestParallelReaderMaxInFlightBound(t *testing.T) {
	input := datasets.CFiles(24*pplSeg, 31)
	stream := writeParallelStream(t, input, pplSeg, ParityConfig{})
	for _, bound := range []int{1, 2, 5} {
		r, err := NewReaderOptions(bytes.NewReader(stream), Params{}, ReaderOptions{
			HostWorkers: 8,
			MaxInFlight: bound,
			Prefetch:    16,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, input) {
			t.Fatalf("bound %d: bad round-trip", bound)
		}
		st := r.Stats()
		if st.MaxInFlight > bound {
			t.Errorf("bound %d: MaxInFlight high-water %d exceeds it", bound, st.MaxInFlight)
		}
		if st.MaxInFlight < 1 {
			t.Errorf("bound %d: high-water %d, nothing was ever admitted?", bound, st.MaxInFlight)
		}
	}
}

// TestReaderBareContainerCap: the legacy (non-framed) path buffers its
// input whole, so it must be bounded and fail typed, not OOM-shaped.
func TestReaderBareContainerCap(t *testing.T) {
	container, _, err := Compress(datasets.CFiles(64<<10, 11), "v2", Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Under the cap: decodes normally.
	r, err := NewReaderOptions(bytes.NewReader(container), Params{},
		ReaderOptions{MaxContainerLen: int64(len(container))})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := io.ReadAll(r); err != nil || len(out) != 64<<10 {
		t.Fatalf("capped open: err %v, %d bytes", err, len(out))
	}
	// Over the cap: typed refusal, input not slurped.
	if _, err := NewReaderOptions(bytes.NewReader(container), Params{},
		ReaderOptions{MaxContainerLen: int64(len(container)) - 1}); !errors.Is(err, ErrContainerTooLarge) {
		t.Fatalf("over-cap open = %v, want ErrContainerTooLarge", err)
	}
	// Negative: unlimited, the pre-cap behaviour.
	r, err = NewReaderOptions(bytes.NewReader(container), Params{},
		ReaderOptions{MaxContainerLen: -1})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := io.ReadAll(r); err != nil || len(out) != 64<<10 {
		t.Fatalf("unlimited open: err %v, %d bytes", err, len(out))
	}
}

// legacyShapeDecode replays the pre-pipeline Reader's allocation shape:
// a FrameReader without a lease hook (fresh container buffer per frame)
// and a whole-buffer Decompress per segment.
func legacyShapeDecode(tb testing.TB, stream []byte) int {
	tb.Helper()
	fr, err := format.NewFrameReader(bytes.NewReader(stream))
	if err != nil {
		tb.Fatal(err)
	}
	total := 0
	for {
		frame, trailer, err := fr.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if trailer != nil {
			return total
		}
		plain, err := Decompress(frame.Container, Params{})
		if err != nil {
			tb.Fatal(err)
		}
		total += len(plain)
	}
}

func pipelineDecode(tb testing.TB, stream []byte, workers int) int {
	tb.Helper()
	r, err := NewReaderOptions(bytes.NewReader(stream), Params{}, ReaderOptions{HostWorkers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	n, err := io.Copy(io.Discard, r)
	if err != nil {
		tb.Fatal(err)
	}
	return int(n)
}

// TestParallelReaderAllocationDiscipline is the allocs regression gate:
// a full-stream decode through the pooled pipeline must allocate less
// than half the bytes of the pre-pipeline shape (fresh container +
// fresh plaintext buffer per segment). Byte counts, not timings, so the
// gate is stable on any host.
func TestParallelReaderAllocationDiscipline(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking inside a test")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews per-op allocation accounting")
	}
	input := datasets.CFiles(32*pplSeg, 5)
	stream := writeParallelStream(t, input, pplSeg, ParityConfig{})
	want := legacyShapeDecode(t, stream)

	legacy := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := legacyShapeDecode(b, stream); got != want {
				b.Fatalf("legacy decode %d bytes, want %d", got, want)
			}
		}
	})
	pooled := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := pipelineDecode(b, stream, 1); got != want {
				b.Fatalf("pooled decode %d bytes, want %d", got, want)
			}
		}
	})
	lb, pb := legacy.AllocedBytesPerOp(), pooled.AllocedBytesPerOp()
	t.Logf("alloc bytes/op: legacy %d, pooled %d (%.1f%%)", lb, pb, float64(pb)/float64(lb)*100)
	if pb*2 > lb {
		t.Errorf("pooled decode allocates %d bytes/op, want <= 50%% of legacy %d", pb, lb)
	}
}

// BenchmarkReaderStreamDecode tracks the pooled pipeline's allocation
// profile (run with -benchmem; the differential gate above enforces the
// ratio).
func BenchmarkReaderStreamDecode(b *testing.B) {
	input := datasets.CFiles(32*pplSeg, 5)
	stream := writeParallelStream(b, input, pplSeg, ParityConfig{})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				pipelineDecode(b, stream, workers)
			}
		})
	}
}

// BenchmarkReaderStreamDecodeLegacyShape is the pre-pipeline shape, kept
// for -benchmem comparison against BenchmarkReaderStreamDecode.
func BenchmarkReaderStreamDecodeLegacyShape(b *testing.B) {
	input := datasets.CFiles(32*pplSeg, 5)
	stream := writeParallelStream(b, input, pplSeg, ParityConfig{})
	b.ReportAllocs()
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		legacyShapeDecode(b, stream)
	}
}
