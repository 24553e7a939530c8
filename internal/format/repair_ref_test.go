package format

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"culzss/internal/ecc"
)

// refSolution is what refTrySolve settles a group to: the full k+m shard
// set, every parity row recomputed.
type refSolution struct {
	hdr        *ParityFrame
	shards     [][]byte
	rebuilt    map[int][]byte // rebuilt records by index
	parityHave map[int]bool
}

// refTrySolve is the pad-and-recompute settlement, kept as the reference
// trySolve must decide like: it pads every held record to the shard
// length, builds a coder, has Reconstruct rebuild the missing data and
// re-encode the missing parity, and recomputes all m parity rows to
// compare with the wire.
func (fr *FrameReader) refTrySolve(s int, hdr *ParityFrame, run []*parityRec) *refSolution {
	rep := fr.rep
	k, m, shardLen := hdr.K, hdr.M, hdr.ShardLen

	dataEnc := make([][]byte, k)
	erasures := 0
	for i := 0; i < k; i++ {
		gf := rep.got[s+i]
		if gf == nil || len(gf.frame.rec) != hdr.FrameLens[i] {
			erasures++
			continue
		}
		dataEnc[i] = gf.frame.rec
	}
	parShard := make([][]byte, m)
	parityHave := make(map[int]bool)
	conflict := make(map[int]bool)
	for _, pr := range run {
		if !sameGeometry(pr.pf, hdr) {
			continue
		}
		j := pr.pf.J
		if conflict[j] {
			continue
		}
		switch {
		case parShard[j] == nil:
			parShard[j] = pr.pf.Shard
			parityHave[j] = true
		case !bytes.Equal(parShard[j], pr.pf.Shard):
			parShard[j] = nil
			delete(parityHave, j)
			conflict[j] = true
		}
	}
	if erasures > len(parityHave) {
		return nil
	}
	coder, err := ecc.New(k, m)
	if err != nil {
		return nil
	}
	padded := make([][]byte, k)
	for i, enc := range dataEnc {
		if enc != nil {
			padded[i] = make([]byte, shardLen)
			copy(padded[i], enc)
		}
	}
	tryErase := func(extra int) *refSolution {
		shards := make([][]byte, k+m)
		for i := 0; i < k; i++ {
			if i != extra {
				shards[i] = padded[i]
			}
		}
		for j := 0; j < m; j++ {
			shards[k+j] = parShard[j]
		}
		if err := coder.Reconstruct(shards); err != nil {
			return nil
		}
		rebuilt := make(map[int][]byte)
		for i := 0; i < k; i++ {
			if dataEnc[i] != nil && i != extra {
				continue
			}
			enc := shards[i][:hdr.FrameLens[i]]
			sf := fr.parseSegmentRecord(bytes.Clone(enc))
			if sf == nil || sf.Index != s+i {
				return nil
			}
			rebuilt[s+i] = bytes.Clone(enc)
		}
		if len(parityHave) > 0 {
			recomputed, err := coder.Parity(shards[:k])
			if err != nil {
				return nil
			}
			for j := range parityHave {
				if !bytes.Equal(recomputed[j], parShard[j]) {
					return nil
				}
			}
			copy(shards[k:], recomputed)
		}
		return &refSolution{hdr: hdr, shards: shards, rebuilt: rebuilt, parityHave: parityHave}
	}
	if sol := tryErase(-1); sol != nil {
		return sol
	}
	if len(parityHave) >= erasures+1 {
		for i := 0; i < k; i++ {
			if dataEnc[i] == nil {
				continue
			}
			if sol := tryErase(i); sol != nil {
				return sol
			}
		}
	}
	return nil
}

// sinkCall is one RepairSink call.
type sinkCall struct {
	index int
	off   int64
	enc   []byte
}

// refSink is the reference's RepairSink feed: the rebuilt records, then
// every parity record that did not arrive intact, from the reference's
// fully populated shard set, at offsets chained as sinkRepairs chains
// them.
func (fr *FrameReader) refSink(s int, sol *refSolution, run []*parityRec) []sinkCall {
	rep := fr.rep
	hdr := sol.hdr
	k, m := hdr.K, hdr.M
	lens := make([]int64, k+m)
	encParity := make([][]byte, m)
	for i := 0; i < k; i++ {
		lens[i] = int64(hdr.FrameLens[i])
	}
	for j := 0; j < m; j++ {
		pf := &ParityFrame{FirstIndex: s, K: k, M: m, J: j,
			ShardLen: hdr.ShardLen, FrameLens: hdr.FrameLens, Shard: sol.shards[k+j]}
		lens[k+j] = int64(pf.EncodedLen())
		if !sol.parityHave[j] {
			encParity[j] = AppendParityFrame(nil, pf)
		}
	}
	offs := make([]int64, k+m)
	for i := range offs {
		offs[i] = -1
	}
	for i := 0; i < k; i++ {
		if gf := rep.got[s+i]; gf != nil && gf.off >= 0 {
			offs[i] = gf.off
		}
	}
	for _, pr := range run {
		if sameGeometry(pr.pf, hdr) && sol.parityHave[pr.pf.J] && pr.off >= 0 {
			offs[k+pr.pf.J] = pr.off
		}
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < 0 && offs[i-1] >= 0 {
			offs[i] = offs[i-1] + lens[i-1]
		}
	}
	for i := len(offs) - 2; i >= 0; i-- {
		if offs[i] < 0 && offs[i+1] >= 0 {
			offs[i] = offs[i+1] - lens[i]
		}
	}
	var calls []sinkCall
	idxs := make([]int, 0, len(sol.rebuilt))
	for idx := range sol.rebuilt {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		calls = append(calls, sinkCall{idx, offs[idx-s], sol.rebuilt[idx]})
	}
	for j := 0; j < m; j++ {
		if encParity[j] != nil {
			calls = append(calls, sinkCall{-1, offs[k+j], encParity[j]})
		}
	}
	return calls
}

// TestSettlementMatchesReference runs trySolve and the pad-and-recompute
// reference over random groups — K from 1 to 8, M from 1 to 4, random
// erasures, lost and disputed parity, imposters that keep or change a
// record's length, and a parity record with a forged frame length — and
// requires the same decision, the same rebuilt frames and the same bytes
// and offsets handed to RepairSink.
func TestSettlementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	accepted, rebuiltTotal, sunkParity := 0, 0, 0
	for trial := 0; trial < 4000; trial++ {
		k, m := 1+rng.Intn(8), 1+rng.Intn(4)
		s := rng.Intn(3) * k
		recs := make([][]byte, k)
		for i := range recs {
			container := make([]byte, 1+rng.Intn(90))
			rng.Read(container)
			if rng.Intn(3) == 0 {
				clear(container[len(container)/2:]) // a zero tail of its own
			}
			recs[i] = AppendSegmentFrame(nil, s+i, 1+rng.Intn(1000), container)
		}
		pfs, err := BuildParityFrames(s, recs, m)
		if err != nil {
			t.Fatal(err)
		}
		var run []*parityRec
		off := int64(100)
		offs := make([]int64, k)
		for i := range recs {
			offs[i] = off
			off += int64(len(recs[i]))
		}
		for _, pf := range pfs {
			switch rng.Intn(6) {
			case 0: // lost
			case 1: // disputed: a second copy with one byte changed
				bad := *pf
				bad.Shard = bytes.Clone(pf.Shard)
				bad.Shard[rng.Intn(len(bad.Shard))] ^= byte(1 + rng.Intn(255))
				run = append(run, &parityRec{pf: pf, off: off}, &parityRec{pf: &bad, off: -1})
			default:
				run = append(run, &parityRec{pf: pf, off: off})
			}
			off += int64(pf.EncodedLen())
		}
		if rng.Intn(8) == 0 && len(pfs) > 0 {
			// A forged geometry: one frame length moved within the shard.
			bad := *pfs[0]
			bad.FrameLens = append([]int(nil), bad.FrameLens...)
			i := rng.Intn(k)
			if bad.FrameLens[i] > 1 {
				bad.FrameLens[i]--
			} else {
				bad.FrameLens[i]++
			}
			run = append(run, &parityRec{pf: &bad, off: -1})
		}
		if len(run) == 0 {
			continue
		}

		fr := &FrameReader{salvage: true, maxRaw: MaxSegmentLen, maxComp: MaxSegmentLen}
		fr.EnableRepair()
		for i, rec := range recs {
			switch rng.Intn(7) {
			case 0: // erased
				continue
			case 1: // imposter of the same length
				rec = bytes.Clone(rec)
				rec[rng.Intn(len(rec))] ^= byte(1 + rng.Intn(255))
			case 2: // imposter one byte longer
				rec = append(bytes.Clone(rec), byte(rng.Intn(256)))
			}
			o := offs[i]
			if rng.Intn(4) == 0 {
				o = -1
			}
			fr.rep.got[s+i] = &groupFrame{frame: &SegmentFrame{Index: s + i, rec: rec}, off: o}
		}

		var hdrs []*ParityFrame
	outer:
		for _, pr := range run {
			for _, h := range hdrs {
				if sameGeometry(h, pr.pf) {
					continue outer
				}
			}
			hdrs = append(hdrs, pr.pf)
		}
		for _, hdr := range hdrs {
			label := fmt.Sprintf("trial %d (k=%d m=%d, header %v)", trial, k, m, hdr.FrameLens)
			want := fr.refTrySolve(s, hdr, run)
			got := fr.trySolve(s, hdr, run)
			if (want == nil) != (got == nil) {
				t.Fatalf("%s: reference accepts %v, trySolve accepts %v", label, want != nil, got != nil)
			}
			if got == nil {
				continue
			}
			accepted++
			if len(got.rebuilt) != len(want.rebuilt) {
				t.Fatalf("%s: rebuilt %d frames, reference %d", label, len(got.rebuilt), len(want.rebuilt))
			}
			for idx, gf := range got.rebuilt {
				if !bytes.Equal(gf.frame.rec, want.rebuilt[idx]) {
					t.Fatalf("%s: rebuilt frame %d differs from the reference", label, idx)
				}
				if ref := fr.parseSegmentRecord(bytes.Clone(want.rebuilt[idx])); gf.frame.Index != ref.Index ||
					gf.frame.RawLen != ref.RawLen || !bytes.Equal(gf.frame.Container, ref.Container) {
					t.Fatalf("%s: rebuilt frame %d parses differently", label, idx)
				}
			}
			rebuiltTotal += len(got.rebuilt)
			var calls []sinkCall
			fr.RepairSink = func(index int, off int64, enc []byte) {
				calls = append(calls, sinkCall{index, off, bytes.Clone(enc)})
			}
			fr.sinkRepairs(s, got, run)
			fr.RepairSink = nil
			wantCalls := fr.refSink(s, want, run)
			if len(calls) != len(wantCalls) {
				t.Fatalf("%s: %d RepairSink calls, reference %d", label, len(calls), len(wantCalls))
			}
			for i := range calls {
				if calls[i].index != wantCalls[i].index || calls[i].off != wantCalls[i].off || !bytes.Equal(calls[i].enc, wantCalls[i].enc) {
					t.Fatalf("%s: RepairSink call %d is (%d, %d, %d bytes), reference (%d, %d, %d bytes)", label, i,
						calls[i].index, calls[i].off, len(calls[i].enc), wantCalls[i].index, wantCalls[i].off, len(wantCalls[i].enc))
				}
				if calls[i].index < 0 {
					sunkParity++
				}
			}
		}
	}
	// The random mix must reach every branch it claims to compare.
	t.Logf("%d settlements, %d rebuilt frames, %d parity records sunk", accepted, rebuiltTotal, sunkParity)
	if accepted < 1000 || rebuiltTotal < 500 || sunkParity < 200 {
		t.Fatalf("weak coverage: %d settlements, %d rebuilt frames, %d parity records sunk", accepted, rebuiltTotal, sunkParity)
	}
}

// TestBuildParityFramesMatchesPadded checks that parity built over
// records of different lengths, passed as they are, is the parity of the
// zero-padded records.
func TestBuildParityFramesMatchesPadded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k, m := 1+rng.Intn(8), 1+rng.Intn(4)
		frames := make([][]byte, k)
		shardLen := 0
		for i := range frames {
			frames[i] = make([]byte, 1+rng.Intn(300))
			rng.Read(frames[i])
			shardLen = max(shardLen, len(frames[i]))
		}
		pfs, err := BuildParityFrames(0, frames, m)
		if err != nil {
			t.Fatal(err)
		}
		padded := make([][]byte, k)
		for i, f := range frames {
			padded[i] = make([]byte, shardLen)
			copy(padded[i], f)
		}
		coder, _ := ecc.New(k, m)
		want, err := coder.Parity(padded)
		if err != nil {
			t.Fatal(err)
		}
		for j, pf := range pfs {
			if pf.ShardLen != shardLen || !bytes.Equal(pf.Shard, want[j]) {
				t.Fatalf("trial %d (k=%d m=%d): parity shard %d differs from the padded build", trial, k, m, j)
			}
		}
	}
}
