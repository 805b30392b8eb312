// Command toposweep runs concurrent scenario sweeps over the simulated
// cluster: grids of policy × topology × cluster size × job count ×
// α-weights × postponement thresholds × seed replicas, fanned across a
// bounded worker pool with deterministic per-point seeds. The same grid
// produces byte-identical artifacts at any worker count, so sweeps are
// comparable across machines and commits.
//
//	toposweep -list                           show the available grids
//	toposweep -list topology                  dump a named grid as a JSON spec
//	toposweep -grid default -workers 8        run a named grid
//	toposweep -grid hetero                    heterogeneous (mixed-machine) clusters
//	toposweep -grid @spec.json -out out.json  run an ad-hoc grid spec file
//	toposweep -grid alpha -csv alpha.csv      write a per-point CSV
//	toposweep -grid smoke -cpuprofile c.pprof profile the sweep (also -memprofile)
//
// Topology specs in grid files cover homogeneous builders, heterogeneous
// machine mixes ("mix": [{"kind": "minsky", "count": 2}, ...]) and
// discovered machines parsed from nvidia-smi-style connectivity-matrix
// files ("matrix_file": "path/to/machine.matrix", resolved against the
// spec file's directory with a working-directory fallback).
//
// The grid spec file format is documented in docs/sweeps.md; runnable
// examples live in examples/sweeps/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gputopo/internal/sweep"
)

func main() {
	var (
		gridName = flag.String("grid", "default", "named grid to run (see -list), or @file.json for a grid spec file")
		workers  = flag.Int("workers", runtime.NumCPU(), "worker pool size")
		out      = flag.String("out", "", "write the JSON artifact to this path")
		csv      = flag.String("csv", "", "write the per-point CSV to this path")
		seed     = flag.Uint64("seed", 42, "base seed; every point derives its own seed from it (overrides a spec file's base_seed when set explicitly)")
		list     = flag.Bool("list", false, "list the available grids and exit; with a grid name argument, dump that grid as a JSON spec template")
		quiet    = flag.Bool("quiet", false, "suppress per-point progress")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this path")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (after the sweep) to this path")
	)
	flag.Parse()

	if *list {
		if err := listGrids(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "toposweep:", err)
			os.Exit(1)
		}
		return
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	opts := runOpts{
		out: *out, csv: *csv,
		cpuProfile: *cpuProf, memProfile: *memProf,
		seed: *seed, seedSet: seedSet, quiet: *quiet,
		workers: *workers,
	}
	if err := run(os.Stdout, *gridName, opts); err != nil {
		fmt.Fprintln(os.Stderr, "toposweep:", err)
		os.Exit(1)
	}
}

// listGrids prints the registered grids in sorted order, or — given a
// grid name — dumps that grid as an indented JSON spec usable as a
// template for -grid @file.json. An unknown name is an error.
func listGrids(w io.Writer, args []string) error {
	if len(args) > 1 {
		return fmt.Errorf("-list takes at most one grid name, got %q", args)
	}
	if len(args) == 1 {
		g, err := sweep.Named(args[0], 42)
		if err != nil {
			return err
		}
		js, err := g.SpecJSON()
		if err != nil {
			return err
		}
		_, err = w.Write(js)
		return err
	}
	for _, name := range sweep.GridNames() {
		fmt.Fprintf(w, "  %-12s %s\n", name, sweep.GridDescription(name))
	}
	return nil
}

// resolveGrid turns the -grid argument into a Grid: a registered name, or
// a spec file when prefixed with @.
func resolveGrid(gridName string, seed uint64, seedSet bool) (sweep.Grid, error) {
	if path, ok := strings.CutPrefix(gridName, "@"); ok {
		g, err := sweep.LoadGridSpec(path)
		if err != nil {
			return sweep.Grid{}, err
		}
		if seedSet {
			g.BaseSeed = seed
		}
		return g, nil
	}
	return sweep.Named(gridName, seed)
}

// runOpts bundles the output-producing flags of a sweep run.
type runOpts struct {
	workers                int
	out, csv               string
	cpuProfile, memProfile string
	seedSet, quiet         bool
	seed                   uint64
}

func run(w io.Writer, gridName string, o runOpts) error {
	grid, err := resolveGrid(gridName, o.seed, o.seedSet)
	if err != nil {
		return err
	}

	opt := sweep.Options{Workers: o.workers}
	if !o.quiet {
		total := len(grid.Points())
		last := -1
		opt.Progress = func(done, _ int) {
			// Redraw at most 100 times regardless of grid size.
			if pct := done * 100 / total; pct != last || done == total {
				last = pct
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d points", grid.Name, done, total)
			}
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	rep, err := sweep.Run(grid, opt)
	if err != nil {
		return err
	}
	rep.Elapsed = time.Since(start)

	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}

	fmt.Fprintln(w, rep.Render())

	if o.out != "" {
		js, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, js, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d bytes)\n", o.out, len(js))
	}
	if o.csv != "" {
		if err := os.WriteFile(o.csv, rep.CSV(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.csv)
	}
	return nil
}
