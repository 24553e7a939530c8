// Repair-mode salvage: use parity frames to reconstruct damaged or
// missing segment frames instead of skipping them.
//
// The repair layer sits between the raw salvage record pump
// (nextSalvageRaw) and the FrameReader.Next contract. It retains the
// exact encoded bytes of every data frame it sees and settles them a
// parity group at a time: when a group's parity arrives, the survivors
// plus the parity shards go through the Reed–Solomon coder, missing
// frames are reconstructed, and the whole group is verified against the
// parity before anything is released. Every reconstructed frame is
// re-parsed by the window's head decoder under the stream's frame bound
// and CRC-verified, so a successful repair is bit-identical to the
// original by construction, never merely plausible.
//
// Why hold-until-close rather than eager delivery: the per-frame CRC
// covers only the container bytes, so a bit flip inside the index or
// rawLen varint yields a frame that still parses and passes its CRC — a
// plausible imposter. Such a frame can only be unmasked by checking the
// group against its parity, which exists only once the group closes.
// Holding delivery until then lets the reader (a) void both claimants
// when two different frames collide on one index, treating the slot as
// an erasure for parity to refill, and (b) locate a content-level
// imposter by trial erasure: re-derive each suspect frame from the rest
// of the group plus parity and accept the single substitution that makes
// every parity shard and every per-frame CRC agree.
//
// Delivery policy: frames are released in index order when their group
// closes. A group closes at its last parity shard, at the first parity
// record of a different group, at the trailer, or at end of input — never
// at an out-of-group data frame, whose index a flip could have forged.
// Successful repairs surface as *RepairedSegmentError notices
// (non-sticky, like *CorruptSegmentError); damage beyond the parity's
// reach degrades to the plain-salvage *CorruptSegmentError per gap.
//
// Settlement does only the work its decision needs: held frames go to
// the coder unpadded, the check against the wire recomputes only the
// parity rows the erasure decode did not use as equations, into one
// scratch row, and a lost parity row is computed only for RepairSink.
//
// Memory bound: a few groups' worth of encoded frames plus the open
// group's parity shards and one scratch row. For streams that carry no
// parity at all, retention is abandoned as soon as the reader has seen
// more than MaxParityK data frames without a single parity frame (a
// parity-bearing writer must emit parity at least that often), and the
// reader degrades to plain salvage behavior. A hard cap of 4·MaxParityK
// held frames bounds retention against hostile index values.
package format

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"culzss/internal/ecc"
)

// RepairedSegmentError reports a damaged region that parity
// reconstruction fully healed. Like *CorruptSegmentError it is returned
// by FrameReader.Next between segments and is not sticky; unlike it, the
// affected segments ARE delivered — bit-identical to the originals — on
// subsequent calls. Index is -1 when only parity frames (redundancy, not
// data) had to be rebuilt.
type RepairedSegmentError struct {
	// Index is the first repaired segment index, or -1 for parity-only
	// repair.
	Index int
	// Frames lists every repaired segment index, ascending.
	Frames []int
	// Offset is the absolute stream offset where the damage began, -1
	// when the damaged region was a clean excision with no byte damage.
	Offset int64
	// Skipped is how many bytes of damage were discarded while
	// resynchronizing.
	Skipped int64
	// Err is the parse or checksum failure that revealed the damage.
	Err error
}

// Error implements error.
func (e *RepairedSegmentError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("format: repaired parity frames at offset %d (data intact): %v", e.Offset, e.Err)
	}
	return fmt.Sprintf("format: repaired %d segment(s) starting at %d (offset %d, %d damaged bytes): %v",
		len(e.Frames), e.Index, e.Offset, e.Skipped, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *RepairedSegmentError) Unwrap() error { return e.Err }

// groupFrame is one retained data frame. Its record, frame.rec, is the
// frame's exact wire bytes: the data shard parity covers.
type groupFrame struct {
	frame *SegmentFrame
	off   int64 // absolute stream offset of the frame, -1 unknown
}

// parityRec is one collected parity frame of the open group.
type parityRec struct {
	pf  *ParityFrame
	off int64
}

// repairEvent is one queued delivery: exactly one field is set.
type repairEvent struct {
	frame   *SegmentFrame
	trailer *StreamTrailer
	err     error
}

// repairState is the frame buffer behind repair-mode salvage.
type repairState struct {
	k, m       int // stream parity geometry; 0 until learned
	sawParity  bool
	disabled   bool
	framesSeen int

	got      map[int]*groupFrame // held frames by index
	poisoned map[int]bool        // indices voided by a collision
	maxSeen  int                 // highest index ever held; -1 none
	run      []*parityRec        // parity records of the open group
	damage   []*CorruptSegmentError

	deliverNext int // next segment index owed to the consumer
	queue       []repairEvent

	// scratch is the one parity row every settlement recomputes into.
	scratch []byte
}

// EnableRepair switches a salvage-mode FrameReader into repair mode:
// parity groups are buffered and damaged frames are reconstructed from
// parity instead of skipped. It must be called before the first Next.
// On a non-salvage reader it is a no-op (normal mode is fail-fast and
// has nothing to repair).
func (fr *FrameReader) EnableRepair() {
	if !fr.salvage || fr.rep != nil {
		return
	}
	fr.rep = &repairState{
		got:      make(map[int]*groupFrame),
		poisoned: make(map[int]bool),
		maxSeen:  -1,
	}
}

// holding reports whether the reader holds frames for repair: repair
// mode, not abandoned. Such a reader copies each record out whole.
func (fr *FrameReader) holding() bool {
	return fr.rep != nil && !fr.rep.disabled
}

// repairNext is Next's salvage path in repair mode.
func (fr *FrameReader) repairNext() (*SegmentFrame, *StreamTrailer, error) {
	rep := fr.rep
	for {
		if len(rep.queue) > 0 {
			ev := rep.queue[0]
			rep.queue = rep.queue[1:]
			return ev.frame, ev.trailer, ev.err
		}
		rec, err := fr.nextSalvageRaw()
		switch {
		case err != nil:
			var cse *CorruptSegmentError
			if errors.As(err, &cse) {
				if rep.disabled {
					rep.queue = append(rep.queue, repairEvent{err: cse})
				} else {
					rep.damage = append(rep.damage, cse)
				}
				continue
			}
			// Terminal (truncation or I/O): settle everything held — with
			// trailing parity in hand this is where a torn tail gets
			// rebuilt — then surface the terminal error.
			fr.closeAll(nil)
			rep.queue = append(rep.queue, repairEvent{err: err})
		case rec.trailer != nil:
			fr.closeAll(rec.trailer)
			rep.queue = append(rep.queue, repairEvent{trailer: rec.trailer})
		case rec.parity != nil:
			fr.repairParity(rec.parity)
		default:
			fr.repairFrame(rec.frame)
		}
	}
}

// repairFrame routes one intact-looking data frame into the hold buffer.
func (fr *FrameReader) repairFrame(f *SegmentFrame) {
	rep := fr.rep
	rep.framesSeen++
	if rep.disabled {
		rep.queue = append(rep.queue, repairEvent{frame: f})
		return
	}
	if f.Index < rep.deliverNext {
		return // stale duplicate of an already-settled index
	}
	if rep.poisoned[f.Index] {
		return // index already voided by a collision
	}
	if old := rep.got[f.Index]; old != nil {
		if bytes.Equal(old.frame.rec, f.rec) {
			return // exact duplicate
		}
		// Two different frames claim one index: at least one is an
		// imposter (a header flip the container CRC cannot see). Trust
		// neither; the slot becomes an erasure for parity to refill.
		delete(rep.got, f.Index)
		rep.poisoned[f.Index] = true
		return
	}
	rep.got[f.Index] = &groupFrame{frame: f, off: fr.recOff}
	if f.Index > rep.maxSeen {
		rep.maxSeen = f.Index
	}
	if !rep.sawParity && rep.framesSeen > MaxParityK {
		// A parity-bearing writer must emit parity at least every
		// MaxParityK frames; this stream has none. Stop buffering.
		fr.disableRepair()
		return
	}
	if len(rep.got) > 4*MaxParityK {
		// Runaway retention (hostile index values): stop buffering.
		fr.disableRepair()
	}
}

// repairParity routes one intact parity frame into the open group run.
func (fr *FrameReader) repairParity(p *ParityFrame) {
	rep := fr.rep
	if rep.disabled {
		// Same transparency contract as non-repair salvage: a group that
		// closes past the reader reveals cleanly excised frames.
		if close := p.FirstIndex + p.K; close > fr.nextIndex {
			fr.corrupted = true
			rep.queue = append(rep.queue, repairEvent{err: &CorruptSegmentError{
				Index:  fr.nextIndex,
				Offset: fr.recOff,
				Err:    fmt.Errorf("%w: parity closes group at %d, reader is at %d", ErrFrameOrder, close, fr.nextIndex),
			}})
			fr.nextIndex = close
		}
		return
	}
	rep.sawParity = true
	if rep.k == 0 {
		rep.k, rep.m = p.K, p.M
	}
	if p.FirstIndex+p.K <= rep.deliverNext {
		return // stale group, already settled
	}
	if len(rep.run) > 0 && rep.run[0].pf.FirstIndex != p.FirstIndex {
		fr.closeParityGroup()
	}
	rep.run = append(rep.run, &parityRec{pf: p, off: fr.recOff})
	// Parity proves its whole group was written; move the expected index
	// past the group so the next group's frames parse as in-order.
	if close := p.FirstIndex + p.K; close > fr.nextIndex {
		fr.nextIndex = close
	}
	if p.J == p.M-1 {
		fr.closeParityGroup()
	}
}

// disableRepair abandons repair buffering, settling everything held
// (without parity the gaps are plain losses) and reverting to the plain
// salvage flow.
func (fr *FrameReader) disableRepair() {
	rep := fr.rep
	target := rep.deliverNext
	for i := range rep.got {
		if i+1 > target {
			target = i + 1
		}
	}
	fr.flushRange(target)
	for _, d := range rep.damage {
		rep.queue = append(rep.queue, repairEvent{err: d})
	}
	rep.damage = nil
	rep.run = nil
	rep.poisoned = make(map[int]bool)
	rep.disabled = true
}

// closeAll settles every open group and held frame at end of stream. t
// is the trailer when one arrived, nil at a terminal error.
func (fr *FrameReader) closeAll(t *StreamTrailer) {
	rep := fr.rep
	if rep.disabled {
		for _, d := range rep.damage {
			rep.queue = append(rep.queue, repairEvent{err: d})
		}
		rep.damage = nil
		return
	}
	fr.closeParityGroup()
	if t != nil && t.Segments >= rep.deliverNext {
		// The trailer bounds the real stream; anything held beyond it is
		// a header-flip phantom.
		for i := range rep.got {
			if i >= t.Segments {
				delete(rep.got, i)
			}
		}
	}
	target := rep.deliverNext
	for i := range rep.got {
		if i+1 > target {
			target = i + 1
		}
	}
	if t != nil && t.Segments > target && t.Segments-target <= maxIndexGap {
		// Frames the trailer counts but the stream no longer carries are
		// losses, not a short stream.
		target = t.Segments
	}
	fr.flushRange(target)
	for _, d := range rep.damage {
		rep.queue = append(rep.queue, repairEvent{err: d})
	}
	rep.damage = nil
}

// flushRange releases every held frame below target in index order,
// reporting each gap as one merged CorruptSegmentError. Indices flushed
// this way are beyond repair: any parity that covered them has already
// been spent or lost.
func (fr *FrameReader) flushRange(target int) {
	rep := fr.rep
	for rep.deliverNext < target {
		i := rep.deliverNext
		if gf := rep.got[i]; gf != nil {
			rep.queue = append(rep.queue, repairEvent{frame: gf.frame})
			delete(rep.got, i)
			delete(rep.poisoned, i)
			rep.deliverNext = i + 1
			continue
		}
		j := i + 1
		for j < target && rep.got[j] == nil {
			j++
		}
		fr.Obs.Counter("culzss_repair_unrepairable_total").Add(int64(j - i))
		fr.corrupted = true
		rep.queue = append(rep.queue, repairEvent{err: fr.mergeDamage(i, j-i)})
		for x := i; x < j; x++ {
			delete(rep.poisoned, x)
		}
		rep.deliverNext = j
	}
}

// mergeDamage folds the pending damage reports into one
// CorruptSegmentError covering count segments starting at index.
func (fr *FrameReader) mergeDamage(index, count int) *CorruptSegmentError {
	rep := fr.rep
	cse := &CorruptSegmentError{Index: index, Offset: -1}
	if len(rep.damage) > 0 {
		cse.Offset = rep.damage[0].Offset
		cse.Err = rep.damage[0].Err
		for _, d := range rep.damage {
			cse.Skipped += d.Skipped
		}
		rep.damage = rep.damage[:0]
	} else {
		cse.Err = fmt.Errorf("%w: %d segment(s) lost with no parity cover", ErrFrameOrder, count)
	}
	return cse
}

// closeParityGroup settles the group described by the open parity run:
// reconstructs missing frames, verifies the survivors against the
// parity, and releases the group in index order.
func (fr *FrameReader) closeParityGroup() {
	rep := fr.rep
	if len(rep.run) == 0 {
		return
	}
	run := rep.run
	rep.run = nil
	s := run[0].pf.FirstIndex

	// Header-flip phantom guard: a parity frame whose FirstIndex varint
	// was flipped describes a group nothing corroborates. If the claimed
	// range holds no frames, no damage was seen, and the range starts
	// beyond the delivery watermark, drop the parity silently rather
	// than inventing a group's worth of lost segments.
	maxK := 0
	for _, pr := range run {
		if pr.pf.K > maxK {
			maxK = pr.pf.K
		}
	}
	overlap := false
	for i := s; i < s+maxK; i++ {
		if rep.got[i] != nil || rep.poisoned[i] {
			overlap = true
			break
		}
	}
	if !overlap && len(rep.damage) == 0 && s > rep.deliverNext {
		return
	}

	k0 := run[0].pf.K
	missing0 := 0
	for i := s; i < s+k0; i++ {
		if rep.got[i] == nil {
			missing0++
		}
	}
	sol := fr.solveGroup(s, run)
	if missing0 > 0 || sol == nil || len(sol.rebuilt) > 0 {
		fr.Obs.Counter("culzss_repair_attempts_total").Inc()
	}
	if sol == nil {
		// Nothing provable: leave every frame held. The claimed range may
		// be a phantom (a flipped FirstIndex varint) whose real group is
		// still on its way; genuinely lost segments are reported when a
		// later close or end of stream settles past them.
		return
	}
	// Settle everything owed before this group first: those indices have
	// no parity left that could repair them.
	fr.flushRange(s)
	fr.applySolution(s, sol, run)
	fr.flushRange(s + sol.hdr.K)
}

// groupSolution is one verified settlement of a parity group.
type groupSolution struct {
	hdr   *ParityFrame // chosen geometry source
	coder *ecc.Coder
	// data is the group's k data shards: held records, each zero-padded
	// in effect, and rebuilt shards of ShardLen bytes.
	data [][]byte
	// parity is the m parity shards that arrived intact on the wire; nil
	// where a shard was lost or two disagreed.
	parity  [][]byte
	rebuilt map[int]*groupFrame // repaired data frames by index
}

// sameGeometry reports whether two parity headers describe the same
// group shape.
func sameGeometry(a, b *ParityFrame) bool {
	if a.K != b.K || a.M != b.M || a.ShardLen != b.ShardLen {
		return false
	}
	for i := range a.FrameLens {
		if a.FrameLens[i] != b.FrameLens[i] {
			return false
		}
	}
	return true
}

// solveGroup tries each distinct geometry among the run's parity
// headers — a header flip can make duplicates disagree — preferring the
// one that best matches the held frames, and returns the first verified
// settlement.
func (fr *FrameReader) solveGroup(s int, run []*parityRec) *groupSolution {
	rep := fr.rep
	var cands []*ParityFrame
outer:
	for _, pr := range run {
		for _, c := range cands {
			if sameGeometry(c, pr.pf) {
				continue outer
			}
		}
		cands = append(cands, pr.pf)
	}
	// Score: held frames whose observed length matches the header's
	// record. Accepted frames always have their genuine wire length (a
	// width-changing flip shifts the CRC and is rejected), so a length
	// mismatch convicts the header, not the frame.
	score := func(h *ParityFrame) int {
		sc := 0
		for i := 0; i < h.K; i++ {
			if gf := rep.got[s+i]; gf != nil {
				if len(gf.frame.rec) == h.FrameLens[i] {
					sc++
				} else {
					sc -= 1000
				}
			}
		}
		return sc
	}
	sort.SliceStable(cands, func(a, b int) bool { return score(cands[a]) > score(cands[b]) })
	for _, hdr := range cands {
		if sol := fr.trySolve(s, hdr, run); sol != nil {
			return sol
		}
	}
	return nil
}

// trySolve attempts to settle the group under one candidate geometry:
// erasure-decode the missing slots, verify every reconstruction by
// strict re-parse, and cross-check the final data against every parity
// shard that arrived on the wire and that the decode did not already use
// as an equation. If the group is complete but the parity disagrees — a
// content imposter — it re-derives each held frame in turn (trial
// erasure) and accepts the single substitution that makes everything
// agree.
func (fr *FrameReader) trySolve(s int, hdr *ParityFrame, run []*parityRec) *groupSolution {
	rep := fr.rep
	k, m, shardLen := hdr.K, hdr.M, hdr.ShardLen

	// Held records go to the coder as they are: it zero-pads a shard
	// shorter than shardLen itself.
	data := make([][]byte, k)
	erasures := 0
	for i := 0; i < k; i++ {
		gf := rep.got[s+i]
		if gf == nil || len(gf.frame.rec) != hdr.FrameLens[i] {
			erasures++
			continue
		}
		data[i] = gf.frame.rec
	}
	parity := make([][]byte, m)
	have := 0
	conflict := make([]bool, m)
	for _, pr := range run {
		if !sameGeometry(pr.pf, hdr) {
			continue
		}
		j := pr.pf.J
		switch {
		case conflict[j]:
		case parity[j] == nil:
			parity[j] = pr.pf.Shard
			have++
		case !bytes.Equal(parity[j], pr.pf.Shard):
			// Two shards claim slot j (a flipped J varint): trust neither.
			parity[j] = nil
			have--
			conflict[j] = true
		}
	}
	if erasures > have {
		return nil
	}
	coder, err := ecc.New(k, m)
	if err != nil {
		return nil
	}

	tryErase := func(extra int) *groupSolution {
		shards := make([][]byte, k+m)
		copy(shards, data)
		if extra >= 0 {
			shards[extra] = nil
		}
		copy(shards[k:], parity)
		used, err := coder.ReconstructData(shards, shardLen)
		if err != nil {
			return nil
		}
		rebuilt := make(map[int]*groupFrame)
		for i := 0; i < k; i++ {
			if data[i] != nil && i != extra {
				continue
			}
			sf := fr.parseSegmentRecord(shards[i][:hdr.FrameLens[i]])
			if sf == nil || sf.Index != s+i {
				return nil
			}
			off := int64(-1)
			if gf := rep.got[s+i]; gf != nil {
				off = gf.off
			}
			rebuilt[s+i] = &groupFrame{frame: sf, off: off}
		}
		for j, p := range parity {
			if p != nil && !slices.Contains(used, j) && !rep.rowMatches(coder, shards[:k], j, p) {
				return nil
			}
		}
		return &groupSolution{hdr: hdr, coder: coder, data: shards[:k], parity: parity, rebuilt: rebuilt}
	}

	if sol := tryErase(-1); sol != nil {
		return sol
	}
	// The straightforward decode failed its verification: some held
	// frame is lying. Locate it by trial erasure — only possible with a
	// spare parity shard beyond the known erasures.
	if have >= erasures+1 {
		for i := 0; i < k; i++ {
			if data[i] == nil {
				continue
			}
			if sol := tryErase(i); sol != nil {
				return sol
			}
		}
	}
	return nil
}

// rowMatches reports whether parity row j of data equals the wire shard,
// computing the row into the reader's scratch row.
func (rep *repairState) rowMatches(coder *ecc.Coder, data [][]byte, j int, wire []byte) bool {
	if cap(rep.scratch) < len(wire) {
		rep.scratch = make([]byte, len(wire))
	}
	row := rep.scratch[:len(wire)]
	return coder.ParityRow(row, data, j) == nil && bytes.Equal(row, wire)
}

// parseSegmentRecord strictly parses ONE segment frame occupying exactly
// enc (no trailing bytes) under the stream's frame bound and verifies its
// CRC, or returns nil. The repair layer runs every reconstructed frame
// through this before trusting it. The frame keeps enc as its record, so
// enc must be a buffer nothing else holds.
func (fr *FrameReader) parseSegmentRecord(enc []byte) *SegmentFrame {
	var h head
	if h.decode(enc, fr.maxRaw, fr.maxComp, true) != nil || h.marker != frameMarkerSegment ||
		len(enc) != h.n+h.body || Checksum32(enc[h.n:]) != h.crc {
		return nil
	}
	return &SegmentFrame{Index: h.f[0], RawLen: h.f[1], Container: enc[h.n:], rec: enc}
}

// applySolution installs a verified settlement: repaired frames join the
// hold buffer, a RepairedSegmentError notice is queued, counters tick,
// and an armed RepairSink receives the bytes to patch.
func (fr *FrameReader) applySolution(s int, sol *groupSolution, run []*parityRec) {
	rep := fr.rep
	for idx, gf := range sol.rebuilt {
		if old := rep.got[idx]; old != nil {
			// A content imposter (flipped rawLen varint) was accepted and
			// summed into the running raw total before parity unmasked it;
			// correct the books so the trailer's strict consistency check
			// still holds on an otherwise-clean stream.
			fr.rawTotal += gf.frame.RawLen - old.frame.RawLen
		}
		rep.got[idx] = gf
		delete(rep.poisoned, idx)
		if idx > rep.maxSeen {
			rep.maxSeen = idx
		}
	}
	switch {
	case len(sol.rebuilt) > 0:
		fr.Obs.Counter("culzss_repair_repaired_total").Add(int64(len(sol.rebuilt)))
		idxs := make([]int, 0, len(sol.rebuilt))
		for idx := range sol.rebuilt {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		notice := &RepairedSegmentError{Index: idxs[0], Frames: idxs, Offset: -1}
		if len(rep.damage) > 0 {
			notice.Offset = rep.damage[0].Offset
			notice.Err = rep.damage[0].Err
			for _, d := range rep.damage {
				notice.Skipped += d.Skipped
			}
			rep.damage = rep.damage[:0]
		} else {
			notice.Err = fmt.Errorf("%w: segments altered or excised without byte damage", ErrFrameOrder)
		}
		rep.queue = append(rep.queue, repairEvent{err: notice})
	case len(rep.damage) > 0:
		// Data intact; the damage hit only this group's parity frames.
		d := rep.damage[0]
		var skipped int64
		for _, dd := range rep.damage {
			skipped += dd.Skipped
		}
		rep.damage = rep.damage[:0]
		rep.queue = append(rep.queue, repairEvent{err: &RepairedSegmentError{
			Index: -1, Offset: d.Offset, Skipped: skipped, Err: d.Err,
		}})
	}
	if fr.RepairSink != nil {
		fr.sinkRepairs(s, sol, run)
	}
}

// sinkRepairs hands every rebuilt record to the RepairSink with the
// absolute stream offset it originally occupied, derived by chaining the
// group's known record offsets through the parity-recorded lengths.
func (fr *FrameReader) sinkRepairs(s int, sol *groupSolution, run []*parityRec) {
	rep := fr.rep
	hdr := sol.hdr
	k, m := hdr.K, hdr.M
	// Encoded wire length of every record in the group, data then parity.
	lens := make([]int64, k+m)
	encParity := make([][]byte, m)
	for i := 0; i < k; i++ {
		lens[i] = int64(hdr.FrameLens[i])
	}
	for j := 0; j < m; j++ {
		pf := &ParityFrame{FirstIndex: s, K: k, M: m, J: j,
			ShardLen: hdr.ShardLen, FrameLens: hdr.FrameLens, Shard: sol.parity[j]}
		if pf.Shard == nil {
			// A lost parity record is rewritten, so only its row is
			// computed, and only here. No data shard exceeds ShardLen, so
			// ParityRow cannot fail.
			pf.Shard = make([]byte, hdr.ShardLen)
			_ = sol.coder.ParityRow(pf.Shard, sol.data, j)
			encParity[j] = AppendParityFrame(make([]byte, 0, pf.EncodedLen()), pf)
		}
		lens[k+j] = int64(pf.EncodedLen())
	}
	// Anchor known offsets, then propagate forward and backward.
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
		if sameGeometry(pr.pf, hdr) && sol.parity[pr.pf.J] != nil && pr.off >= 0 {
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
	idxs := make([]int, 0, len(sol.rebuilt))
	for idx := range sol.rebuilt {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		gf := sol.rebuilt[idx]
		gf.off = offs[idx-s]
		fr.RepairSink(idx, gf.off, gf.frame.rec)
	}
	for j := 0; j < m; j++ {
		if encParity[j] != nil {
			fr.RepairSink(-1, offs[k+j], encParity[j])
		}
	}
}
