package harness

import (
	"testing"
	"time"
)

// The modeled decode cells are the bench gate's parallel-decode
// evidence: deterministic, and the 8-worker pipeline at least 3x the
// single-worker Reader on the 1 MiB corpus (the PR's acceptance bar).
func TestReaderDecodeCellsSpeedupAndDeterminism(t *testing.T) {
	cfg := Config{Size: 1 << 20, Reps: 1, Modeled: true}
	cells, err := ReaderDecodeCells(cfg, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	one, eight := cells[0], cells[1]
	if one.System != "Reader 1w" || eight.System != "Reader 8w" {
		t.Fatalf("unexpected systems %q, %q", one.System, eight.System)
	}
	if one.NsPerOp <= 0 || eight.NsPerOp <= 0 {
		t.Fatalf("non-positive modeled times: %d, %d", one.NsPerOp, eight.NsPerOp)
	}
	if speedup := float64(one.NsPerOp) / float64(eight.NsPerOp); speedup < 3 {
		t.Errorf("8-worker speedup %.2fx, want >= 3x (1w=%v 8w=%v)",
			speedup, time.Duration(one.NsPerOp), time.Duration(eight.NsPerOp))
	}

	again, err := ReaderDecodeCells(cfg, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			t.Errorf("cell %d not deterministic: %+v vs %+v", i, cells[i], again[i])
		}
	}
}

// makespanSteps is n copies of d, one per segment.
func makespanSteps(n int, d time.Duration) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = d
	}
	return s
}

// checkMakespan holds pipelineMakespan to its invariants for one
// pipeline shape: the given serial schedule, monotone in worker count,
// and a worker count beyond the segment count changes nothing.
func checkMakespan(t *testing.T, read, work, emit []time.Duration, serial time.Duration) {
	t.Helper()
	if got := pipelineMakespan(read, work, emit, 1); got != serial {
		t.Errorf("serial makespan %v, want %v", got, serial)
	}
	prev := serial
	for _, w := range []int{2, 4, 8, 16} {
		got := pipelineMakespan(read, work, emit, w)
		if got > prev {
			t.Errorf("makespan grew with workers: %d workers -> %v, previous %v", w, got, prev)
		}
		prev = got
	}
	if a, b := pipelineMakespan(read, work, emit, 16), pipelineMakespan(read, work, emit, 64); a != b {
		t.Errorf("idle workers changed the schedule: %v vs %v", a, b)
	}
}

// pipelineMakespan in the Reader's shape: a serial read stage and no
// emit. The first decode starts after the first read; every later decode
// starts when the previous one ends (the reads overlap the long decodes).
func TestPipelineMakespan(t *testing.T) {
	const n = 16
	checkMakespan(t, makespanSteps(n, time.Millisecond), makespanSteps(n, 80*time.Millisecond), nil,
		time.Millisecond+n*80*time.Millisecond)
}
