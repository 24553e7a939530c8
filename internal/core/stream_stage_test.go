package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"culzss/internal/datasets"
)

// A repair-mode Reader parses ahead of admission by up to one parity
// group: these tests pin that it does, that it stays within the group,
// that nothing else reads ahead, and that Close still joins everything.

// trickleSource serves data in reads of at most 64 bytes, so its offset
// tracks how far the FrameReader has parsed, and closes reached once
// the offset passes target. With gate set it blocks once the offset
// passes gateAt, closes blocked, and waits for gate to close.
type trickleSource struct {
	data    []byte
	off     int
	target  int
	reached chan struct{}

	gateAt  int
	gate    chan struct{}
	blocked chan struct{}
	once    sync.Once
}

func newTrickleSource(data []byte, target int) *trickleSource {
	return &trickleSource{data: data, target: target, reached: make(chan struct{}), gateAt: -1}
}

func (s *trickleSource) Read(p []byte) (int, error) {
	if s.gateAt >= 0 && s.off >= s.gateAt {
		s.once.Do(func() { close(s.blocked) })
		<-s.gate
	}
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 64)], s.data[s.off:])
	before := s.off
	s.off += n
	if before < s.target && s.off >= s.target {
		close(s.reached)
	}
	return n, nil
}

// stageStream is 12 segments with 4+2 parity: three groups.
func stageStream(t *testing.T) (input, stream []byte, recs []streamRec) {
	t.Helper()
	input = datasets.CFiles(12*pplSeg, 5)
	stream = writeParallelStream(t, input, pplSeg, ParityConfig{K: 4, M: 2})
	recs = streamRecords(t, stream)
	if len(recs) != 18 {
		t.Fatalf("stream has %d records, want 12 data and 6 parity", len(recs))
	}
	return input, stream, recs
}

// waitFor fails the test unless ch closes within the deadline.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("no %s within 10s", what)
	}
}

// checkNoGoroutinesBeyond waits, up to a deadline, for the goroutine
// count to fall back to base.
func checkNoGoroutinesBeyond(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive Close, %d before the Reader:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRepairPrefetchParsesNextGroupWhileLastWaits: with one admission
// slot, the first Read admits segment 0's successor and nothing more,
// yet the prefetcher must parse and settle the whole second group
// without a further Read.
func TestRepairPrefetchParsesNextGroupWhileLastWaits(t *testing.T) {
	input, stream, recs := stageStream(t)
	base := runtime.NumGoroutine()
	src := newTrickleSource(stream, recs[11].end) // group 1's last parity record
	r, err := NewReaderOptions(src, Params{}, ReaderOptions{Repair: true, HostWorkers: 1, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, src.reached, "parse of the second group's last parity record")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, input[:len(buf)]) {
		t.Fatal("first Read served wrong bytes")
	}
	if _, err := r.Read(buf); !errors.Is(err, ErrReaderClosed) {
		t.Fatalf("Read after Close = %v, want ErrReaderClosed", err)
	}
	checkNoGoroutinesBeyond(t, base)
}

// TestRepairPrefetchStagingBound: a repair-mode Reader holds at most
// FrameReader.ParityK records parsed behind the one awaiting admission,
// and does hold some; admission stays within MaxInFlight; a Reader of a
// parity-less stream, or outside repair mode, stages none.
func TestRepairPrefetchStagingBound(t *testing.T) {
	input, stream, _ := stageStream(t)
	plain := writeParallelStream(t, input, pplSeg, ParityConfig{})
	for _, tc := range []struct {
		name   string
		stream []byte
		opts   ReaderOptions
		staged bool
	}{
		{"repair", stream, ReaderOptions{Repair: true, HostWorkers: 1, MaxInFlight: 1}, true},
		{"repair 2 workers", stream, ReaderOptions{Repair: true, HostWorkers: 2}, true},
		{"repair, no parity", plain, ReaderOptions{Repair: true, HostWorkers: 1, MaxInFlight: 1}, false},
		{"salvage", stream, ReaderOptions{Salvage: true, HostWorkers: 1, MaxInFlight: 1}, false},
		{"strict", stream, ReaderOptions{HostWorkers: 1, MaxInFlight: 1}, false},
	} {
		bound := tc.opts.MaxInFlight
		if bound == 0 {
			bound = tc.opts.HostWorkers
		}
		for run := 0; run < 5; run++ {
			r, err := NewReaderOptions(newTrickleSource(tc.stream, -1), Params{}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(out, input) {
				t.Fatalf("%s: decode: err %v, %d of %d bytes", tc.name, err, len(out), len(input))
			}
			if st := r.Stats(); st.MaxInFlight > bound {
				t.Errorf("%s: %d segments in flight, bound %d", tc.name, st.MaxInFlight, bound)
			}
			switch {
			case r.maxStaged > r.fr.ParityK:
				t.Errorf("%s: staged %d records, ParityK %d", tc.name, r.maxStaged, r.fr.ParityK)
			case !tc.staged && r.maxStaged != 0:
				t.Errorf("%s: staged %d records, want none", tc.name, r.maxStaged)
			case tc.staged && tc.opts.MaxInFlight == 1 && r.maxStaged == 0:
				t.Errorf("%s: staged nothing ahead of a single admission slot", tc.name)
			}
		}
	}
}

// TestRepairPrefetchCloseMidGroup: Close while the prefetcher is inside
// a group — its source blocked halfway through the second group's data
// — and while it is parked with records staged, returns, and no
// goroutine outlives it.
func TestRepairPrefetchCloseMidGroup(t *testing.T) {
	_, stream, recs := stageStream(t)
	base := runtime.NumGoroutine()
	for _, gated := range []bool{true, false} {
		src := newTrickleSource(stream, -1)
		if gated {
			src.gateAt = recs[7].start // group 1's second data record
			src.gate, src.blocked = make(chan struct{}), make(chan struct{})
		}
		r, err := NewReaderOptions(src, Params{}, ReaderOptions{Repair: true, HostWorkers: 2, MaxInFlight: 1})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 100)
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatal(err)
		}
		if gated {
			waitFor(t, src.blocked, "source read inside the second group")
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			if err := r.Close(); err != nil {
				t.Error(err)
			}
		}()
		if gated {
			// Close cancels, then waits for the prefetcher, which is
			// still inside Next: release the source once it has.
			waitFor(t, r.pctx.Done(), "cancellation by Close")
			close(src.gate)
		}
		waitFor(t, closed, "Close")
		if _, err := r.Read(buf); !errors.Is(err, ErrReaderClosed) {
			t.Fatalf("gated %v: Read after Close = %v, want ErrReaderClosed", gated, err)
		}
		checkNoGoroutinesBeyond(t, base)
	}
}
