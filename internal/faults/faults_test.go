package faults

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Fault(SiteLaunch); err != nil {
		t.Fatalf("nil injector faulted: %v", err)
	}
	if in.FailFirst(SiteLaunch, 3) != nil {
		t.Fatal("nil rule chain should stay nil")
	}
	if in.LaunchHook() != nil {
		t.Fatal("nil injector should yield nil hook")
	}
	if got := in.Counts(SiteLaunch); got != (Counts{}) {
		t.Fatalf("nil counts = %+v", got)
	}
	var buf bytes.Buffer
	if w := in.CorruptWriter(&buf, 10); w != &buf {
		t.Fatal("nil injector must return the writer unchanged")
	}
	if in.Seed() != 0 {
		t.Fatal("nil seed")
	}
}

func TestFailFirstTransientThenPasses(t *testing.T) {
	in := New(PinnedSeed(1)).FailFirst(SiteLaunch, 2)
	for i := 1; i <= 2; i++ {
		err := in.Fault(SiteLaunch)
		if err == nil {
			t.Fatalf("attempt %d should fault", i)
		}
		if !IsTransient(err) || !IsInjected(err) {
			t.Fatalf("attempt %d: want transient injected fault, got %v", i, err)
		}
		var f *Fault
		if !errors.As(err, &f) || f.Attempt != i || f.Site != SiteLaunch {
			t.Fatalf("attempt %d: bad fault %+v", i, f)
		}
	}
	if err := in.Fault(SiteLaunch); err != nil {
		t.Fatalf("attempt 3 should pass, got %v", err)
	}
	if c := in.Counts(SiteLaunch); c.Attempts != 3 || c.Injected != 2 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestAlwaysIsPersistent(t *testing.T) {
	in := New(PinnedSeed(1)).Always(SiteChunk)
	for i := 0; i < 5; i++ {
		err := in.Fault(SiteChunk)
		if err == nil {
			t.Fatal("Always site passed")
		}
		if IsTransient(err) {
			t.Fatal("Always faults must be persistent")
		}
	}
}

func TestFailEvery(t *testing.T) {
	in := New(PinnedSeed(1)).FailEvery(SiteTransfer, 3)
	var pattern []bool
	for i := 0; i < 9; i++ {
		pattern = append(pattern, in.Fault(SiteTransfer) != nil)
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("attempt %d: got %v, want %v (pattern %v)", i+1, pattern[i], want[i], pattern)
		}
	}
}

// TestFailProbDeterministicPerSeed is the seed contract: the same seed
// and probe order make the same decisions.
func TestFailProbDeterministicPerSeed(t *testing.T) {
	seed := PinnedSeed(42)
	run := func() []bool {
		in := New(seed).FailProb(SiteLaunch, 0.3)
		out := make([]bool, 100)
		for i := range out {
			out[i] = in.Fault(SiteLaunch) != nil
		}
		return out
	}
	a, b := run(), run()
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d differs across identically seeded injectors", i)
		}
		if a[i] {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Fatalf("prob 0.3 injected %d/%d — rule not probabilistic", injected, len(a))
	}
}

func TestConcurrentProbesDeterministicVolume(t *testing.T) {
	in := New(PinnedSeed(7)).FailFirst(SiteChunk, 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_ = in.Fault(SiteChunk)
			}
		}()
	}
	wg.Wait()
	if c := in.Counts(SiteChunk); c.Attempts != 200 || c.Injected != 10 {
		t.Fatalf("counts = %+v, want 200 attempts / 10 injected", c)
	}
}

func TestLaunchHookWrapsKernelName(t *testing.T) {
	in := New(PinnedSeed(1)).Always(SiteLaunch)
	hook := in.LaunchHook()
	err := hook(context.Background(), "culzss_v1")
	if err == nil || !IsInjected(err) {
		t.Fatalf("hook should inject, got %v", err)
	}
	if want := "culzss_v1"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("hook error %q should name the kernel", err)
	}
}

func TestCorruptWriterFlipsDeterministically(t *testing.T) {
	seed := PinnedSeed(99)
	payload := bytes.Repeat([]byte("the quick brown fox "), 200)
	run := func() ([]byte, Counts) {
		in := New(seed)
		var buf bytes.Buffer
		w := in.CorruptWriter(&buf, 256)
		// Write in uneven slices to prove flip positions are stream
		// offsets, not per-call offsets.
		for off := 0; off < len(payload); {
			n := 37
			if off+n > len(payload) {
				n = len(payload) - off
			}
			if _, err := w.Write(payload[off : off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
		}
		return buf.Bytes(), in.Counts(SiteFrame)
	}
	a, ca := run()
	b, cb := run()
	if !bytes.Equal(a, b) {
		t.Fatal("corruption is not deterministic for a fixed seed")
	}
	if ca != cb || ca.Injected == 0 {
		t.Fatalf("flip counts %+v vs %+v", ca, cb)
	}
	if bytes.Equal(a, payload) {
		t.Fatal("corrupt writer flipped nothing")
	}
	// The caller's buffer must not be mutated.
	if !bytes.Equal(payload, bytes.Repeat([]byte("the quick brown fox "), 200)) {
		t.Fatal("corrupt writer scribbled on the caller's buffer")
	}
	diff := 0
	for i := range a {
		if a[i] != payload[i] {
			diff++
		}
	}
	if diff != ca.Injected {
		t.Fatalf("%d corrupted bytes on the wire, counts say %d", diff, ca.Injected)
	}
}

func TestCorruptWriterBurstErrors(t *testing.T) {
	const burst = 7
	payload := bytes.Repeat([]byte("abcdefgh"), 1024)
	in := New(PinnedSeed(123))
	var buf bytes.Buffer
	w := in.CorruptWriter(&buf, 1024, BurstErrors(burst))
	// One byte per call: bursts must carry across Write boundaries.
	for i := range payload {
		if _, err := w.Write(payload[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	got := buf.Bytes()
	counts := in.Counts(SiteFrame)
	if counts.Injected == 0 || counts.Injected%burst != 0 {
		t.Fatalf("injected %d bytes, want a positive multiple of %d", counts.Injected, burst)
	}
	// Damage comes in runs of `burst` consecutive bytes (adjacent events
	// can merge into a multiple when the drawn gap is minimal).
	runs := 0
	for i := 0; i < len(got); {
		if got[i] == payload[i] {
			i++
			continue
		}
		j := i
		for j < len(got) && got[j] != payload[j] {
			j++
		}
		if (j-i)%burst != 0 {
			t.Fatalf("damage run of %d bytes at %d, want a multiple of %d", j-i, i, burst)
		}
		runs += (j - i) / burst
		i = j
	}
	if runs != counts.Injected/burst {
		t.Fatalf("%d damage runs on the wire, counts imply %d", runs, counts.Injected/burst)
	}
}

func TestCorruptWriterRejectsNonPositiveRate(t *testing.T) {
	in := New(1)
	var buf bytes.Buffer
	defer func() {
		if recover() == nil {
			t.Fatal("armed CorruptWriter with rate 0 did not panic")
		}
	}()
	_ = in.CorruptWriter(&buf, 0)
}
