package faults

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestWrapWriterNilInjectorInert(t *testing.T) {
	var in *Injector
	var buf bytes.Buffer
	if w := in.WrapWriter(&buf); w != io.Writer(&buf) {
		t.Fatal("nil injector must return the writer unchanged")
	}
	// The rule methods chain off nil without panicking.
	if in.TornWriteAt(10).ErrAfterNBytes(5).ShortWrites() != nil {
		t.Fatal("nil injector rule methods must return nil")
	}
	if err := in.Fault(SiteSync); err != nil {
		t.Fatalf("nil injector SiteSync probe: %v", err)
	}
}

func TestWrapWriterUnarmedPassesThrough(t *testing.T) {
	in := New(PinnedSeed(1))
	var buf bytes.Buffer
	w := in.WrapWriter(&buf)
	for i := 0; i < 3; i++ {
		if n, err := w.Write([]byte("abcd")); n != 4 || err != nil {
			t.Fatalf("unarmed write: n=%d err=%v", n, err)
		}
	}
	if got := buf.String(); got != "abcdabcdabcd" {
		t.Fatalf("unarmed wrapper corrupted the stream: %q", got)
	}
	if c := in.Counts(SiteWrite); c.Attempts != 3 || c.Injected != 0 {
		t.Fatalf("unarmed counts = %+v, want {3 0}", c)
	}
}

func TestTornWriteAt(t *testing.T) {
	in := New(PinnedSeed(1)).TornWriteAt(10)
	var buf bytes.Buffer
	w := in.WrapWriter(&buf)

	if n, err := w.Write(make([]byte, 8)); n != 8 || err != nil {
		t.Fatalf("write before the cut: n=%d err=%v", n, err)
	}
	// This write crosses offset 10: exactly 2 more bytes land.
	n, err := w.Write(make([]byte, 8))
	if n != 2 || !IsInjected(err) {
		t.Fatalf("torn write: n=%d err=%v, want n=2 and an injected fault", n, err)
	}
	if IsTransient(err) {
		t.Fatal("a torn write is persistent, not transient")
	}
	if buf.Len() != 10 {
		t.Fatalf("underlying writer holds %d bytes, want exactly 10", buf.Len())
	}
	// The wrapper is dead afterwards: nothing more lands.
	if n, err := w.Write([]byte("x")); n != 0 || !IsInjected(err) {
		t.Fatalf("post-tear write: n=%d err=%v, want 0 and the sticky fault", n, err)
	}
	if buf.Len() != 10 {
		t.Fatalf("post-tear bytes leaked: %d", buf.Len())
	}
	if c := in.Counts(SiteWrite); c.Attempts != 3 || c.Injected != 2 {
		t.Fatalf("counts = %+v, want {3 2}", c)
	}
}

func TestTornWriteAtCallBoundary(t *testing.T) {
	// A cut exactly at a call boundary tears the next write at 0 bytes.
	in := New(PinnedSeed(1)).TornWriteAt(4)
	var buf bytes.Buffer
	w := in.WrapWriter(&buf)
	if n, err := w.Write(make([]byte, 4)); n != 4 || err != nil {
		t.Fatalf("write up to the cut: n=%d err=%v", n, err)
	}
	if n, err := w.Write(make([]byte, 4)); n != 0 || !IsInjected(err) {
		t.Fatalf("write at the cut: n=%d err=%v, want 0 bytes and a fault", n, err)
	}
	if buf.Len() != 4 {
		t.Fatalf("underlying writer holds %d bytes, want 4", buf.Len())
	}
}

func TestErrAfterNBytes(t *testing.T) {
	in := New(PinnedSeed(1)).ErrAfterNBytes(10)
	var buf bytes.Buffer
	w := in.WrapWriter(&buf)

	if n, err := w.Write(make([]byte, 8)); n != 8 || err != nil {
		t.Fatalf("write within budget: n=%d err=%v", n, err)
	}
	// Crossing the budget fails the whole call: no partial bytes.
	if n, err := w.Write(make([]byte, 8)); n != 0 || !IsInjected(err) {
		t.Fatalf("budget-crossing write: n=%d err=%v, want 0 and a fault", n, err)
	}
	if buf.Len() != 8 {
		t.Fatalf("underlying writer holds %d bytes, want the pre-budget 8", buf.Len())
	}
	if n, err := w.Write([]byte("x")); n != 0 || err == nil {
		t.Fatalf("post-budget write: n=%d err=%v", n, err)
	}
	if c := in.Counts(SiteWrite); c.Attempts != 3 || c.Injected != 2 {
		t.Fatalf("counts = %+v, want {3 2}", c)
	}
}

func TestShortWritesComposeWithFireRules(t *testing.T) {
	// ShortWrites + FailEvery(2): every second write is torn in half with
	// a transient fault; the others pass untouched.
	in := New(PinnedSeed(1)).ShortWrites().FailEvery(SiteWrite, 2)
	var buf bytes.Buffer
	w := in.WrapWriter(&buf)

	if n, err := w.Write(make([]byte, 6)); n != 6 || err != nil {
		t.Fatalf("write 1: n=%d err=%v", n, err)
	}
	n, err := w.Write(make([]byte, 6))
	if n != 3 || !IsInjected(err) || !IsTransient(err) {
		t.Fatalf("write 2: n=%d err=%v, want a transient half-write", n, err)
	}
	if n, err := w.Write(make([]byte, 6)); n != 6 || err != nil {
		t.Fatalf("write 3 (rule does not fire): n=%d err=%v", n, err)
	}
	if buf.Len() != 15 {
		t.Fatalf("underlying writer holds %d bytes, want 6+3+6", buf.Len())
	}
	if c := in.Counts(SiteWrite); c.Attempts != 3 || c.Injected != 1 {
		t.Fatalf("counts = %+v, want {3 1}", c)
	}
}

func TestShortWritesWithoutFireRuleInert(t *testing.T) {
	in := New(PinnedSeed(1)).ShortWrites()
	var buf bytes.Buffer
	w := in.WrapWriter(&buf)
	if n, err := w.Write(make([]byte, 9)); n != 9 || err != nil {
		t.Fatalf("ShortWrites without a fire rule must pass: n=%d err=%v", n, err)
	}
}

func TestFireRuleWithoutShortDropsWholeWrite(t *testing.T) {
	// FailFirst(1) without ShortWrites: the first write fails whole (the
	// error arrived before any byte hit the disk) and is not sticky.
	in := New(PinnedSeed(1)).FailFirst(SiteWrite, 1)
	var buf bytes.Buffer
	w := in.WrapWriter(&buf)
	if n, err := w.Write(make([]byte, 5)); n != 0 || !IsTransient(err) {
		t.Fatalf("write 1: n=%d err=%v, want a transient whole-call failure", n, err)
	}
	if n, err := w.Write(make([]byte, 5)); n != 5 || err != nil {
		t.Fatalf("write 2 after the transient fault: n=%d err=%v", n, err)
	}
	if buf.Len() != 5 {
		t.Fatalf("underlying writer holds %d bytes, want 5", buf.Len())
	}
}

func TestSyncSiteRules(t *testing.T) {
	in := New(PinnedSeed(1)).FailFirst(SiteSync, 1)
	err := in.Fault(SiteSync)
	if !IsInjected(err) || !IsTransient(err) {
		t.Fatalf("first sync probe: %v, want a transient injected fault", err)
	}
	if err := in.Fault(SiteSync); err != nil {
		t.Fatalf("second sync probe must pass: %v", err)
	}
	if c := in.Counts(SiteSync); c.Attempts != 2 || c.Injected != 1 {
		t.Fatalf("sync counts = %+v, want {2 1}", c)
	}
	// Always on SiteSync: persistent, every probe.
	in2 := New(PinnedSeed(1)).Always(SiteSync)
	for i := 0; i < 3; i++ {
		if err := in2.Fault(SiteSync); !IsInjected(err) || IsTransient(err) {
			t.Fatalf("probe %d: %v, want persistent injected fault", i, err)
		}
	}
	if c := in2.Counts(SiteSync); c.Attempts != 3 || c.Injected != 3 {
		t.Fatalf("sync counts = %+v, want {3 3}", c)
	}
}

func TestWriteRulesDoNotDisturbOtherSites(t *testing.T) {
	// Arming the write site leaves the device sites alone, and the torn
	// write surfaces through errors.As like every other fault.
	in := New(PinnedSeed(1)).TornWriteAt(0)
	if err := in.Fault(SiteLaunch); err != nil {
		t.Fatalf("launch site must stay unarmed: %v", err)
	}
	var buf bytes.Buffer
	_, err := in.WrapWriter(&buf).Write([]byte("abc"))
	var f *Fault
	if !errors.As(err, &f) || f.Site != SiteWrite {
		t.Fatalf("torn write fault = %v, want a *Fault at SiteWrite", err)
	}
}
