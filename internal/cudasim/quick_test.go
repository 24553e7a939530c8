package cudasim

import (
	"testing"
	"testing/quick"
	"time"
)

// Property tests over the model primitives.

func TestQuickBankConflictDegreeBounds(t *testing.T) {
	fermi := FermiGTX480()
	legacy := TeslaC1060()
	f := func(strideRaw int16) bool {
		stride := int(strideRaw)
		d := fermi.BankConflictDegree(stride)
		if d < 1 || d > WarpSize {
			return false
		}
		dl := legacy.BankConflictDegree(stride)
		return dl >= 1 && dl <= 16 // half-warp service on the legacy part
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoalescedTransactionsBounds(t *testing.T) {
	f := func(baseRaw, strideRaw uint16, elemRaw, lanesRaw uint8) bool {
		base := int(baseRaw)
		stride := int(strideRaw) % 4096
		elem := 1 + int(elemRaw)%64
		lanes := 1 + int(lanesRaw)%WarpSize
		got := CoalescedTransactions(base, stride, elem, lanes)
		// Lower bound: each transaction covers at most 128 of the
		// distinct touched bytes (overlapping lanes cover only the span).
		totalBytes := int64(lanes * elem)
		span := int64((lanes-1)*stride + elem)
		covered := totalBytes
		if span < covered {
			covered = span
		}
		lo := (covered + TransactionBytes - 1) / TransactionBytes
		// Upper bound: one segment per 128 bytes per lane plus a boundary
		// crossing.
		hi := int64(lanes) * (int64(elem)/TransactionBytes + 2)
		return got >= 1 && got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOccupancyMonotone(t *testing.T) {
	d := FermiGTX480()
	// More shared memory per block can never increase residency.
	f := func(tpbRaw uint8, sharedRaw uint16) bool {
		tpb := 32 * (1 + int(tpbRaw)%8) // 32..256
		shared := int(sharedRaw) % d.MaxSharedPerBlock
		b1, o1 := d.Occupancy(tpb, shared)
		b2, o2 := d.Occupancy(tpb, shared+1024)
		return b2 <= b1 && o2 <= o1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPipelineNeverBeatsCriticalPath(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		var slices []PipelineStage
		var kernelSum, copySum, seq int64
		for _, r := range raw {
			h := int64(r % 97)
			k := int64(r % 51)
			d := int64(r % 29)
			slices = append(slices, PipelineStage{
				H2D: dur(h), Kernel: dur(k), D2H: dur(d),
			})
			kernelSum += k
			copySum += h + d
			seq += h + k + d
		}
		got := int64(PipelineSchedule(slices) / 1e6)
		want := SequentialSchedule(slices)
		// Never faster than either engine's total work, never slower
		// than fully sequential.
		if int64(want/1e6) < got {
			return false
		}
		return got >= kernelSum && got >= copySum || len(slices) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func dur(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }

// SequentialSchedule is the unpipelined baseline: every stage of every
// slice runs back to back (the paper's measured configuration).
func SequentialSchedule(slices []PipelineStage) time.Duration {
	var total time.Duration
	for _, s := range slices {
		total += s.H2D + s.Kernel + s.D2H
	}
	return total
}
