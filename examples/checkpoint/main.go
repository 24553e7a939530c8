// Checkpoint: the paper's HPC motivation (§VI): "Many applications write
// to a file every few timesteps for subsequent visualization. Other
// long-running applications checkpoint their state to disk for
// restarting."
//
// A toy stencil simulation evolves a 2-D grid; every k steps the state is
// serialised the way visualization dumps usually are — quantised to
// 16-bit fixed point, stored as byte planes (all high bytes, then all low
// bytes) so the smooth plane compresses — then written as a framed CLZS
// stream through the crash-safe durable layer (internal/durable): bytes
// accumulate in a ".partial" file with frame-boundary fsyncs and the
// final name appears atomically on completion.
//
// The last dump is deliberately killed mid-write with an injected torn
// write — the crash a checkpointing application actually fears. The
// example then does what a restarted application would do: durable.Resume
// scans the wreck, truncates to the last verifiable frame, and continues
// the same stream; the finished checkpoint decodes bit-identically, and
// the simulation restarts from it.
//
// Run with:
//
//	go run ./examples/checkpoint
package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"

	"culzss/internal/core"
	"culzss/internal/durable"
	"culzss/internal/faults"
	"culzss/internal/stats"
)

const (
	gridW, gridH   = 512, 256
	steps          = 60
	checkpointEach = 15
	quantScale     = 8192 // 16-bit fixed point, |v| < 4
	segmentSize    = 32 << 10
)

type sim struct {
	step int
	grid []float64
}

func newSim() *sim {
	s := &sim{grid: make([]float64, gridW*gridH)}
	// Smooth initial condition: a couple of gaussian bumps.
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			dx, dy := float64(x-gridW/3), float64(y-gridH/2)
			dx2, dy2 := float64(x-2*gridW/3), float64(y-gridH/3)
			s.grid[y*gridW+x] = math.Exp(-(dx*dx+dy*dy)/5000) + 0.6*math.Exp(-(dx2*dx2+dy2*dy2)/2000)
		}
	}
	return s
}

// tick runs one diffusion + forcing step (deterministic, grows structure).
func (s *sim) tick() {
	next := make([]float64, len(s.grid))
	for y := 1; y < gridH-1; y++ {
		for x := 1; x < gridW-1; x++ {
			i := y*gridW + x
			lap := s.grid[i-1] + s.grid[i+1] + s.grid[i-gridW] + s.grid[i+gridW] - 4*s.grid[i]
			forcing := 0.02 * math.Sin(float64(s.step)*0.1+float64(x)*0.05) * math.Cos(float64(y)*0.07)
			next[i] = s.grid[i] + 0.2*lap + forcing
		}
	}
	s.grid = next
	s.step++
}

// serialize quantises the grid to 16-bit fixed point and splits it into
// byte planes: the high-byte plane of a smooth field is long runs of the
// same value — exactly what LZSS eats (and what real dump formats exploit).
func (s *sim) serialize() []byte {
	n := len(s.grid)
	buf := make([]byte, 8+2*n)
	binary.LittleEndian.PutUint64(buf, uint64(s.step))
	hi, lo := buf[8:8+n], buf[8+n:]
	for i, v := range s.grid {
		q := int16(math.Round(v * quantScale))
		hi[i] = byte(uint16(q) >> 8)
		lo[i] = byte(uint16(q))
	}
	return buf
}

// restore rebuilds a simulation from serialized bytes.
func restore(data []byte) *sim {
	s := &sim{step: int(binary.LittleEndian.Uint64(data))}
	n := (len(data) - 8) / 2
	s.grid = make([]float64, n)
	hi, lo := data[8:8+n], data[8+n:]
	for i := range s.grid {
		q := int16(uint16(hi[i])<<8 | uint16(lo[i]))
		s.grid[i] = float64(q) / quantScale
	}
	return s
}

// dump writes one checkpoint through the durable layer. p may carry an
// armed injector to crash the write mid-stream; the error comes back for
// the caller to react to the way a restarted application would.
func dump(path string, state []byte, p core.Params) (*durable.Writer, error) {
	w, err := durable.Create(path, p, durable.Options{
		CommitEverySegments: 2,
		Stream:              core.StreamOptions{SegmentSize: segmentSize, Codec: "v1"},
	})
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(state); err != nil {
		_ = w.Abort() // the partial stays on disk for Resume
		return w, err
	}
	if err := w.Close(); err != nil {
		return w, err
	}
	return w, nil
}

// decodeCheckpoint reads a finished framed checkpoint back.
func decodeCheckpoint(path string, p core.Params) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := core.NewReader(bufio.NewReader(f), p)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

func main() {
	dir, err := os.MkdirTemp("", "culzss-checkpoint-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Printf("checkpointing a %dx%d grid (16-bit quantised planes) every %d steps into %s\n",
		gridW, gridH, checkpointEach, dir)
	fmt.Printf("durable framed dumps: %d KiB segments, fsync every 2 frames, atomic rename on completion\n\n",
		segmentSize>>10)

	p := core.Params{}
	s := newSim()
	var lastCheckpoint string
	var lastState []byte
	for s.step < steps {
		s.tick()
		if s.step%checkpointEach != 0 {
			continue
		}
		state := s.serialize()
		path := filepath.Join(dir, fmt.Sprintf("step%04d.clzs", s.step))

		if s.step+checkpointEach > steps {
			// The final dump gets "killed" two thirds of the way through:
			// the injector tears the write exactly as a crashed process
			// would, leaving only the .partial file.
			crashAt := int64(len(lastState)) / 3 // well inside the stream
			pc := p
			pc.Injector = faults.New(7).TornWriteAt(crashAt)
			w, err := dump(path, state, pc)
			if err == nil {
				log.Fatal("the injected crash never fired")
			}
			st := w.Stats()
			fmt.Printf("step %3d: KILLED mid-dump after ~%s on disk (%d/%d frames committed)\n",
				s.step, stats.FormatBytes(crashAt), st.Committed, st.Segments)

			// A restarted application resumes the wreck: scan, truncate to
			// the last verifiable frame, continue the same stream.
			rw, rep, err := durable.Resume(path, p, durable.Options{
				CommitEverySegments: 2,
				Stream:              core.StreamOptions{SegmentSize: segmentSize, Codec: "v1"},
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("          resume: %d frame(s) / %s verified, %s unverifiable tail dropped\n",
				rep.NextIndex, stats.FormatBytes(int64(rep.TotalLen)), stats.FormatBytes(rep.Truncated))
			if _, err := rw.Write(state[rep.TotalLen:]); err != nil {
				log.Fatal(err)
			}
			if err := rw.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("          resume: stream completed (%d new frame(s), %d inherited)\n",
				rw.Stats().Segments, rw.Stats().Resumed)
		} else if _, err := dump(path, state, p); err != nil {
			log.Fatal(err)
		}

		fi, err := os.Stat(path)
		if err != nil {
			log.Fatal(err)
		}
		lastCheckpoint, lastState = path, state
		fmt.Printf("step %3d: state %s -> checkpoint %s (ratio %s)\n",
			s.step, stats.FormatBytes(int64(len(state))), stats.FormatBytes(fi.Size()),
			stats.RatioPercent(int(fi.Size()), len(state)))
	}

	// Restore the last checkpoint — the one that crashed and was resumed.
	// The codec must be lossless against the serialized state despite the
	// torn write, and the simulation must restart from it.
	state, err := decodeCheckpoint(lastCheckpoint, p)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(state, lastState) {
		log.Fatal("checkpoint did not decompress to the serialized state")
	}
	restarted := restore(state)
	for i := 0; i < 5; i++ {
		restarted.tick()
	}
	fmt.Printf("\nrestored %s losslessly at step %d (post-crash) and resumed to step %d\n",
		filepath.Base(lastCheckpoint), int(binary.LittleEndian.Uint64(state)), restarted.step)
}
