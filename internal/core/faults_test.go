package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"culzss/internal/datasets"
	"culzss/internal/faults"
	"culzss/internal/format"
)

// fastRetry keeps the injected-fault tests quick: microsecond backoffs,
// default three attempts.
func fastRetry() RetryPolicy {
	return RetryPolicy{BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond}
}

// streamWith compresses data through a Writer with the given params and
// returns the framed stream plus the writer stats.
func streamWith(t *testing.T, data []byte, p Params, o StreamOptions) ([]byte, WriterStats) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, p, o)
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes(), w.Stats()
}

// readAll drains a Reader built over stream with the given options.
func readAll(t *testing.T, stream []byte, o ReaderOptions) ([]byte, *Reader) {
	t.Helper()
	r, err := NewReaderOptions(bytes.NewReader(stream), Params{}, o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(r); err != nil {
		t.Fatalf("read: %v", err)
	}
	return out.Bytes(), r
}

// --- acceptance (a): transient faults are retried to success -----------

func TestWriterRetriesTransientLaunchFaults(t *testing.T) {
	data := datasets.CFiles(64<<10, 11)
	inj := faults.New(faults.PinnedSeed(7)).FailFirst(faults.SiteLaunch, 2)
	p := Params{HostWorkers: 1, Injector: inj}
	o := StreamOptions{Codec: "v1", SegmentSize: 16 << 10, Retry: fastRetry()}

	stream, ws := streamWith(t, data, p, o)
	if ws.Segments != 4 {
		t.Fatalf("segments = %d, want 4", ws.Segments)
	}
	// The first segment's first two launches fail; the third succeeds.
	if ws.Retries != 2 {
		t.Fatalf("retries = %d, want 2", ws.Retries)
	}
	if ws.Degraded != 0 {
		t.Fatalf("degraded = %d, want 0 (faults were transient)", ws.Degraded)
	}
	got, _ := readAll(t, stream, ReaderOptions{})
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch after transient faults")
	}

	// The injector saw exactly the probes the stats claim.
	c := inj.Counts(faults.SiteLaunch)
	if c.Injected != 2 {
		t.Fatalf("injector reports %d injected launch faults, want 2", c.Injected)
	}
}

// --- acceptance (b): persistent faults degrade to the CPU encoder ------

func TestWriterDegradesPersistentFaultsBitIdentically(t *testing.T) {
	data := datasets.CFiles(64<<10, 11)
	o := StreamOptions{Codec: "v1", SegmentSize: 16 << 10, Retry: fastRetry()}

	clean, ws := streamWith(t, data, Params{HostWorkers: 1}, o)
	if ws.Degraded != 0 || ws.Retries != 0 {
		t.Fatalf("clean run recorded faults: %+v", ws)
	}

	inj := faults.New(faults.PinnedSeed(7)).Always(faults.SiteLaunch)
	faulty, ws := streamWith(t, data, Params{HostWorkers: 1, Injector: inj}, o)
	if ws.Degraded != ws.Segments || ws.Segments != 4 {
		t.Fatalf("stats = %+v, want all 4 segments degraded", ws)
	}
	if ws.Retries != 4*2 {
		t.Fatalf("retries = %d, want 8 (two extra attempts per segment)", ws.Retries)
	}

	// The degrade path is bit-compatible: the stream a dead GPU produces
	// is byte-identical to the healthy stream.
	if !bytes.Equal(clean, faulty) {
		t.Fatal("degraded stream differs from the healthy stream")
	}
	got, _ := readAll(t, faulty, ReaderOptions{})
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch after degradation")
	}
}

func TestWriterDisableFallbackFailsStream(t *testing.T) {
	data := datasets.CFiles(32<<10, 11)
	inj := faults.New(faults.PinnedSeed(7)).Always(faults.SiteLaunch)
	pol := fastRetry()
	pol.DisableFallback = true
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{HostWorkers: 1, Injector: inj},
		StreamOptions{Codec: "v1", SegmentSize: 16 << 10, Retry: pol})
	_, werr := w.Write(data)
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Fatal("stream succeeded with fallback disabled and a dead GPU")
	}
	err := cerr
	if err == nil {
		err = werr
	}
	if !faults.IsInjected(err) {
		t.Fatalf("failure does not unwrap to the injected fault: %v", err)
	}
}

// --- acceptance (c): salvage decode of a damaged stream ----------------

func TestSalvageRecoversAllButDamagedSegment(t *testing.T) {
	data := datasets.CFiles(64<<10, 11)
	const segSize = 16 << 10
	stream, _ := streamWith(t, data, Params{HostWorkers: 1},
		StreamOptions{Codec: "cpu", SegmentSize: segSize})
	damaged := append([]byte{}, stream...)
	damaged[len(damaged)/2] ^= 0x20 // inside some segment's container

	// Strict decode refuses the stream.
	r, err := NewReader(bytes.NewReader(damaged), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(bytes.Buffer).ReadFrom(r); err == nil {
		t.Fatal("strict decode accepted a damaged stream")
	}

	// Salvage decode delivers everything but the damaged segment and
	// reports the damage, both through CorruptSegments and the callback.
	var fromCallback []*format.CorruptSegmentError
	got, sr := readAll(t, damaged, ReaderOptions{
		Salvage:   true,
		OnCorrupt: func(cse *format.CorruptSegmentError) { fromCallback = append(fromCallback, cse) },
	})
	damagedRegions := sr.CorruptSegments()
	if len(damagedRegions) != 1 {
		t.Fatalf("recorded %d damaged regions, want 1: %v", len(damagedRegions), damagedRegions)
	}
	if len(fromCallback) != 1 || fromCallback[0] != damagedRegions[0] {
		t.Fatalf("OnCorrupt saw %v, CorruptSegments %v", fromCallback, damagedRegions)
	}
	cse := damagedRegions[0]
	if cse.Index < 0 || cse.Index > 3 {
		t.Fatalf("damaged segment index %d out of range", cse.Index)
	}
	if cse.Skipped <= 0 || cse.Offset <= 0 {
		t.Fatalf("damaged region lacks a byte range: %+v", cse)
	}
	if !errors.Is(cse, format.ErrFrameChecksum) {
		t.Fatalf("cause is not the frame checksum failure: %v", cse)
	}
	// Recovered bytes = original minus exactly the damaged segment.
	lo := cse.Index * segSize
	hi := lo + segSize
	if hi > len(data) {
		hi = len(data)
	}
	want := append(append([]byte{}, data[:lo]...), data[hi:]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("salvaged %d bytes, want original minus segment %d (%d bytes)",
			len(got), cse.Index, len(want))
	}
}

// TestSalvageSurvivesFrameBitFlips drives the injector's corrupting
// writer over the whole stream: whatever the flips hit, salvage must
// never panic and every delivered byte must come from intact, in-order
// segments of the original.
func TestSalvageSurvivesFrameBitFlips(t *testing.T) {
	data := datasets.CFiles(128<<10, 11)
	const segSize = 8 << 10
	stream, _ := streamWith(t, data, Params{HostWorkers: 1},
		StreamOptions{Codec: "cpu", SegmentSize: segSize})

	// Cut the plaintext the way the Writer did, for the subsequence check.
	var segments [][]byte
	for off := 0; off < len(data); off += segSize {
		end := off + segSize
		if end > len(data) {
			end = len(data)
		}
		segments = append(segments, data[off:end])
	}

	inj := faults.New(faults.PinnedSeed(7))
	var corrupted bytes.Buffer
	cw := inj.CorruptWriter(&corrupted, 4<<10) // a flip every ~4 KiB on average
	if _, err := cw.Write(stream); err != nil {
		t.Fatal(err)
	}

	r, err := NewReaderOptions(bytes.NewReader(corrupted.Bytes()), Params{}, ReaderOptions{Salvage: true})
	if err != nil {
		if errors.Is(err, format.ErrBadStreamMagic) || errors.Is(err, format.ErrBadVersion) ||
			errors.Is(err, format.ErrCorrupt) || errors.Is(err, format.ErrTruncated) {
			t.Skipf("flips destroyed the stream header: %v", err)
		}
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(r); err != nil {
		t.Fatalf("salvage read failed outright: %v", err)
	}
	if len(r.CorruptSegments()) == 0 {
		t.Fatal("bit-flipped stream decoded without recording any damage")
	}
	// Every delivered byte must belong to an intact segment, in order.
	got := out.Bytes()
	seg := 0
	for len(got) > 0 {
		matched := false
		for ; seg < len(segments); seg++ {
			if bytes.HasPrefix(got, segments[seg]) {
				got = got[len(segments[seg]):]
				seg++
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("salvaged output is not an in-order subsequence of the original segments (%d bytes unmatched)", len(got))
		}
	}
}

// --- context plumbing ---------------------------------------------------

func TestWriterHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, Params{},
		StreamOptions{Codec: "cpu", SegmentSize: 4 << 10, Context: ctx})
	if _, err := w.Write(datasets.CFiles(16<<10, 3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Write under cancelled context: %v", err)
	}
}

func TestReaderHonoursCancelledContext(t *testing.T) {
	data := datasets.CFiles(16<<10, 3)
	stream, _ := streamWith(t, data, Params{},
		StreamOptions{Codec: "cpu", SegmentSize: 4 << 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := NewReaderOptions(bytes.NewReader(stream), Params{}, ReaderOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Read under cancelled context: %v", err)
	}
}

// TestDeterministicUnderSeed locks the whole fault schedule to the seed:
// two identical runs must produce identical streams, stats, and injector
// counters.
func TestDeterministicUnderSeed(t *testing.T) {
	data := datasets.DEMap(64<<10, 11)
	run := func() ([]byte, WriterStats, faults.Counts) {
		inj := faults.New(faults.PinnedSeed(7)).FailEvery(faults.SiteLaunch, 3)
		p := Params{HostWorkers: 1, Injector: inj}
		stream, ws := streamWith(t, data, p, StreamOptions{Codec: "v1", SegmentSize: 16 << 10, Retry: fastRetry()})
		return stream, ws, inj.Counts(faults.SiteLaunch)
	}
	s1, ws1, c1 := run()
	s2, ws2, c2 := run()
	if !bytes.Equal(s1, s2) {
		t.Fatal("streams differ across identically-seeded runs")
	}
	if ws1 != ws2 {
		t.Fatalf("writer stats differ: %+v vs %+v", ws1, ws2)
	}
	if c1 != c2 {
		t.Fatalf("injector counters differ: %+v vs %+v", c1, c2)
	}
	got, _ := readAll(t, s1, ReaderOptions{})
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}
