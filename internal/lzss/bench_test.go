package lzss

import (
	"bytes"
	"testing"
)

func benchCorpus() []byte {
	// Deterministic mixed corpus: text-ish with runs.
	var buf bytes.Buffer
	words := []string{"window", "buffer", "stream", "packet", "kernel ", "    ", "return 0;\n"}
	for i := 0; buf.Len() < 1<<20; i++ {
		buf.WriteString(words[i%len(words)])
		if i%37 == 0 {
			buf.Write(bytes.Repeat([]byte{'x'}, 20))
		}
	}
	return buf.Bytes()[:1<<20]
}

func BenchmarkLongestMatchBrute(b *testing.B) {
	data := benchCorpus()
	cfg := CULZSSV1()
	b.SetBytes(1)
	for i := 0; i < b.N; i++ {
		pos := 4096 + i%(len(data)-8192)
		LongestMatch(data, pos, pos-cfg.Window, &cfg, nil)
	}
}

func BenchmarkHashMatcher(b *testing.B) {
	data := benchCorpus()
	cfg := Dipperstein()
	hm := NewHashMatcher(cfg)
	hm.Reset(data)
	for i := 0; i < 1<<19; i++ {
		hm.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm.Find(1<<19+i%1024, nil)
	}
}

func BenchmarkEncodeBitPackedBrute(b *testing.B) {
	data := benchCorpus()[:256<<10]
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBitPacked(data, CULZSSV1(), SearchBrute, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBitPackedHashChain(b *testing.B) {
	data := benchCorpus()[:256<<10]
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBitPacked(data, Dipperstein(), SearchHashChain, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeByteAligned(b *testing.B) {
	data := benchCorpus()[:256<<10]
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := EncodeByteAligned(data, CULZSSV1(), SearchBrute, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBitPacked(b *testing.B) {
	data := benchCorpus()[:256<<10]
	comp, err := EncodeBitPacked(data, Dipperstein(), SearchHashChain, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBitPacked(comp, len(data), Dipperstein()); err != nil {
			b.Fatal(err)
		}
	}
}
