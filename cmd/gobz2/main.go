// Command gobz2 compresses files into the real “.bz2” interchange format
// using the repository's from-scratch bzip2 pipeline, and decompresses
// them with the standard library's independent reader — a self-checking
// pair that demonstrates interoperability with the program the paper
// benchmarks against.
//
// Usage:
//
//	gobz2 [-level 9] file          -> file.bz2
//	gobz2 -d file.bz2 [output]     -> decompress (stdlib reader)
package main

import (
	stdbzip2 "compress/bzip2"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"culzss/internal/bzip2"
	"culzss/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gobz2:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gobz2", flag.ContinueOnError)
	var (
		decompress = fs.Bool("d", false, "decompress a .bz2 file (stdlib reader)")
		level      = fs.Int("level", 9, "block size level 1..9 (x100 kB)")
		quiet      = fs.Bool("q", false, "no summary output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fs.Usage()
		return fmt.Errorf("expected input [output]")
	}
	in := fs.Arg(0)

	if *decompress {
		out := fs.Arg(1)
		if out == "" {
			out = strings.TrimSuffix(in, ".bz2")
			if out == in {
				out = in + ".out"
			}
		}
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		plain, err := io.ReadAll(stdbzip2.NewReader(f))
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, plain, 0o644); err != nil {
			return err
		}
		if !*quiet {
			fmt.Printf("%s -> %s (%s)\n", in, out, stats.FormatBytes(int64(len(plain))))
		}
		return nil
	}

	out := fs.Arg(1)
	if out == "" {
		out = in + ".bz2"
	}
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	of, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := bzip2.EncodeBZ2(of, data, *level); err != nil {
		of.Close()
		return err
	}
	if err := of.Close(); err != nil {
		return err
	}
	if !*quiet {
		fi, err := os.Stat(out)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s -> %s (ratio %s)\n", in,
			stats.FormatBytes(int64(len(data))), stats.FormatBytes(fi.Size()),
			stats.RatioPercent(int(fi.Size()), len(data)))
	}
	return nil
}
