package bzip2

import "fmt"

// Stage 1 run-length encoding — bzip2's pre-BWT pass. Runs of four to
// maxRun identical bytes become the byte repeated four times followed by
// a count byte (run length minus four). Its real job is protecting the
// block sort from degenerate runs; the paper's highly-compressible
// dataset (repeating 20-byte substrings) deliberately survives it, which
// is why that dataset still wrecks the sort (Table I, BZIP2 row).

// rle1MaxRun is the container's run cap: the longest run one (byte x4 +
// count) unit can express. The .bz2 format caps runs lower (bz2MaxRun).
const rle1MaxRun = 4 + 255

// rle1Encode applies the stage-1 RLE with runs of at most maxRun bytes.
// It writes at most five bytes for every four it reads.
func rle1Encode(data []byte, maxRun int) []byte {
	out := make([]byte, 0, len(data)+len(data)/4+16)
	i := 0
	for i < len(data) {
		c := data[i]
		run := 1
		for i+run < len(data) && run < maxRun && data[i+run] == c {
			run++
		}
		if run < 4 {
			for k := 0; k < run; k++ {
				out = append(out, c)
			}
		} else {
			out = append(out, c, c, c, c, byte(run-4))
		}
		i += run
	}
	return out
}

// rle1Decode inverts rle1Encode, failing as soon as its output would pass
// limit bytes.
func rle1Decode(data []byte, limit int) ([]byte, error) {
	out := make([]byte, 0, len(data)*2)
	i := 0
	for i < len(data) {
		c := data[i]
		run := 1
		for i+run < len(data) && run < 4 && data[i+run] == c {
			run++
		}
		extra := 0
		if run == 4 {
			if i+run >= len(data) {
				return nil, fmt.Errorf("bzip2: truncated RLE1 run count")
			}
			extra = int(data[i+run])
		}
		if len(out)+run+extra > limit {
			return nil, fmt.Errorf("bzip2: RLE1 output passes the block length %d", limit)
		}
		out = append(out, data[i:i+run]...)
		i += run
		if run == 4 {
			i++
			for k := 0; k < extra; k++ {
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// Stage 2: the MTF output's zero runs are re-expressed with the RUNA/RUNB
// symbols in bijective base 2, exactly as bzip2 does; every nonzero MTF
// value v becomes symbol v+1 and the block ends with EOB, one above the
// largest such symbol.

// Symbol space of the container's entropy-coded stream, and the group
// and table geometry both formats share.
const (
	symRunA      = 0
	symRunB      = 1
	symEOB       = 257
	alphaSize    = 258
	groupSize    = 50 // symbols per selector group, as in bzip2
	maxTables    = 6
	selectorBits = 3
)

// rle2Encode maps MTF indices to the RUNA/RUNB symbol stream, appending
// eob.
func rle2Encode(mtf []byte, eob uint16) []uint16 {
	out := make([]uint16, 0, len(mtf)/2+16)
	emitRun := func(r int) {
		// Bijective base 2 with digits {1: RUNA, 2: RUNB}.
		for r > 0 {
			d := r & 1
			if d == 1 {
				out = append(out, symRunA)
				r = (r - 1) / 2
			} else {
				out = append(out, symRunB)
				r = (r - 2) / 2
			}
		}
	}
	run := 0
	for _, v := range mtf {
		if v == 0 {
			run++
			continue
		}
		emitRun(run)
		run = 0
		out = append(out, uint16(v)+1)
	}
	emitRun(run)
	return append(out, eob)
}

// rle2Decode inverts the container's rle2Encode; the input must end with
// symEOB. It fails as soon as a run or a literal would take its output
// past limit bytes.
func rle2Decode(syms []uint16, limit int) ([]byte, error) {
	const errPast = "bzip2: symbol stream decodes past the stage-1 length %d"
	out := make([]byte, 0, len(syms)*2)
	i := 0
	for {
		if i >= len(syms) {
			return nil, fmt.Errorf("bzip2: symbol stream missing EOB")
		}
		s := syms[i]
		switch {
		case s == symEOB:
			if i != len(syms)-1 {
				return nil, fmt.Errorf("bzip2: data after EOB")
			}
			return out, nil
		case s == symRunA || s == symRunB:
			// Collect the whole run group.
			run, place := 0, 1
			for i < len(syms) && (syms[i] == symRunA || syms[i] == symRunB) {
				if syms[i] == symRunA {
					run += place
				} else {
					run += 2 * place
				}
				if run > limit-len(out) {
					return nil, fmt.Errorf(errPast, limit)
				}
				place *= 2
				i++
			}
			for k := 0; k < run; k++ {
				out = append(out, 0)
			}
		case s <= 256:
			if len(out) == limit {
				return nil, fmt.Errorf(errPast, limit)
			}
			out = append(out, byte(s-1))
			i++
		default:
			return nil, fmt.Errorf("bzip2: symbol %d out of range", s)
		}
	}
}
