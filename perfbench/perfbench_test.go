package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"culzss/internal/core"
	"culzss/internal/datasets"
	"culzss/internal/format"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.50, 10, true}, // rank 10, ten samples beyond
		{19, 0.50, 0, false}, // rank 10, nine beyond
		{100, 0.90, 90, true},
		{99, 0.90, 0, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestVerifierCountsFailedOps(t *testing.T) {
	want := []byte("0123456789") // ops of 4 bytes: [0,4) [4,8) [8,10)
	feed := func(out []byte, err error) int {
		v := newVerifier(want, 4)
		for len(out) > 0 { // odd pieces, as a Reader hands them over
			n := min(3, len(out))
			v.Write(out[:n])
			out = out[n:]
		}
		return v.failures(err)
	}
	flipped := []byte("0123456789")
	flipped[5] ^= 1
	if got := feed(flipped, nil); got != 1 {
		t.Errorf("one flipped output byte: %d failed ops, want 1", got)
	}
	if got := feed(want[:6], nil); got != 2 {
		t.Errorf("output cut after 6 bytes: %d failed ops, want 2", got)
	}
	if got := feed(append([]byte("0123456789"), 'x'), nil); got != 1 {
		t.Errorf("surplus output: %d failed ops, want 1", got)
	}
	if got := feed(want, os.ErrClosed); got != 1 {
		t.Errorf("error after complete output: %d failed ops, want 1", got)
	}
	if got := feed(want, nil); got != 0 {
		t.Errorf("clean output: %d failed ops, want 0", got)
	}
}

// smallHop is a hop-shaped workload small enough for a unit test: eight
// 64 KiB segments, two 4+2 parity groups.
func smallHop() *workload {
	return &workload{
		name: "hop", segSize: hopSegment, input: datasets.DEMap(8*hopSegment, 7),
		parity:    core.ParityConfig{K: hopParityK, M: hopParityM},
		burstSeed: 3,
	}
}

func TestHopPassRepairsEveryBurst(t *testing.T) {
	w := smallHop()
	r := newRunner(w, 2)
	ps := r.pass()
	if ps.failed != 0 || len(ps.errs) != 0 {
		t.Fatalf("clean hop pass failed %d ops: %v", ps.failed, ps.errs)
	}
	if ps.bursts == 0 || ps.repaired != ps.bursts || ps.unrepaired != 0 {
		t.Fatalf("bursts %d, repaired %d, unrepaired %d; want every burst repaired", ps.bursts, ps.repaired, ps.unrepaired)
	}
	groups := map[int]bool{}
	for _, b := range placeBursts(w.burstSeed, r.tee.records, hopParityK) {
		if g := b.frame / hopParityK; groups[g] {
			t.Errorf("group %d got two bursts", g)
		} else {
			groups[g] = true
		}
	}
	rs := r.replay(newTracer(), r.tee.wire, ps.wire)
	if rs.failed != 0 {
		t.Fatalf("replay failed: %v", rs.errs)
	}
	if rs.repaired != ps.repaired {
		t.Errorf("replay repaired %d frames, the Reader %d", rs.repaired, ps.repaired)
	}
}

func TestUnrepairableBurstCounted(t *testing.T) {
	w := smallHop()
	r := newRunner(w, 2)
	var ps passStats
	if err := r.encodeStream(&ps); err != nil {
		t.Fatal(err)
	}
	// One burst from the middle of data frame 0 to the middle of data
	// frame 2: three losses in a 4+2 group, one more than its parity can
	// rebuild.
	damaged := append([]byte(nil), r.tee.wire...)
	layout := r.tee.records
	from := (layout[0].start + layout[0].end) / 2
	to := (layout[2].start + layout[2].end) / 2
	if layout[0].parity || layout[1].parity || layout[2].parity {
		t.Fatalf("first group's layout %+v: want three data frames first", layout[:3])
	}
	for i := from; i < to; i++ {
		damaged[i] ^= 0x5a
	}
	ps = passStats{ops: w.ops(), bursts: 3}
	r.decodeStream(damaged, &ps)
	if ps.unrepaired == 0 {
		t.Errorf("unrepaired = 0; the Reader should report the group it could not rebuild")
	}
	if ps.failed < 3 {
		t.Errorf("failed = %d ops; want at least the 3 lost segments", ps.failed)
	}
	b := &bench{w: w}
	b.note(ps)
	if b.failed < 3 || len(b.problems) == 0 {
		t.Errorf("bench counted %d failures, problems %q", b.failed, b.problems)
	}
}

// A run whose every pass fails yields no latency or wait samples. It must
// still end, print its failures and result line, and exit 1.
func TestFailingRunEnds(t *testing.T) {
	for _, trace := range []bool{false, true} {
		w := smallHop()
		w.parity.K = format.MaxParityK + 1 // the Writer refuses this geometry on every pass
		b := &bench{w: w, seed: 1, trace: trace, workers: 2}
		var out bytes.Buffer
		done := make(chan int, 1)
		go func() { done <- b.measure(time.Second, 0, "", &out, io.Discard) }()
		var code int
		select {
		case code = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("trace=%v: a run whose passes all fail did not end", trace)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res struct {
			Correct           bool
			Attempted, Failed int
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatalf("trace=%v: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if code != 1 || res.Correct || res.Failed == 0 || !bytes.Contains(out.Bytes(), []byte("FAIL")) {
			t.Errorf("trace=%v: exit %d, result %+v; want exit 1, failures counted and printed", trace, code, res)
		}
	}
}

func TestMessagesPass(t *testing.T) {
	w := &workload{name: "messages", segSize: core.DefaultSegmentSize,
		msgs: [][]byte{datasets.CFiles(300, 1), datasets.HighlyCompressible(5000, 2), datasets.Dictionary(1200, 3)}}
	r := newRunner(w, 2)
	ps := r.pass()
	if ps.failed != 0 || len(ps.latMS) != 3 || len(ps.emit) != 3 {
		t.Fatalf("failed %d (%v), %d latencies, %d emits", ps.failed, ps.errs, len(ps.latMS), len(ps.emit))
	}
	if rs := r.replay(newTracer(), nil, ps.wire); rs.failed != 0 {
		t.Fatalf("replay failed: %v", rs.errs)
	}
}

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 5)
		c, _ := newWorkload(name, 6)
		if a.ops() == 0 || string(a.input) != string(b.input) || len(a.msgs) != len(b.msgs) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		same := string(a.input) == string(c.input)
		for i := range a.msgs {
			same = same && string(a.msgs[i]) == string(c.msgs[i])
		}
		if same {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
}
