// Command toposweep runs concurrent scenario sweeps over the simulated
// cluster: grids of policy × topology × cluster size × job count ×
// α-weights × postponement thresholds × seed replicas, fanned across a
// bounded worker pool with deterministic per-point seeds. The same grid
// produces byte-identical artifacts at any worker count, so sweeps are
// comparable across machines and commits — and diffable.
//
//	toposweep -list                           show the available grids
//	toposweep -list topology                  dump a named grid as a JSON spec
//	toposweep -grid default -workers 8        run a named grid
//	toposweep -grid hetero                    heterogeneous (mixed-machine) clusters
//	toposweep -grid @spec.json -out out.json  run an ad-hoc grid spec file
//	toposweep -grid alpha -csv alpha.csv      write a per-point CSV
//	toposweep -diff old.json new.json         regression-diff two artifacts
//	toposweep -grid smoke -bench BENCH.json   record wall-clock + jobs/sec
//	toposweep -diff-bench -tol 0.5 old new    perf-diff two bench artifacts
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
	"slices"
	"strconv"
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
		diff     = flag.Bool("diff", false, "diff two JSON artifacts: toposweep -diff old.json new.json; exits 2 on regression (flags go before the file arguments)")
		tol      = flag.Float64("tol", 0, "relative tolerance for -diff/-diff-bench (0 = exact)")
		tolStd   = flag.Float64("tol-stddev", 0, "with -diff: relative tolerance for the .stddev distribution metrics (0 = use -tol)")
		tolP95   = flag.Float64("tol-p95", 0, "with -diff: relative tolerance for the .p95 distribution metrics (0 = use -tol)")
		tolMet   = flag.String("tol-metric", "", "per-metric tolerance overrides for -diff/-diff-bench, e.g. makespan_s=0.05, makespan_s.p95=0.2 or allocs_per_op=0.1 (comma-separated)")
		wallOff  = flag.Bool("wallclock-off", false, "with -diff-bench: skip wall-clock metrics (elapsed_sec, points/jobs per sec, ns_per_op) and gate allocation counts only — for noisy CI runners")
		strict   = flag.Bool("strict", false, "with -diff, also exit 2 on improvements — any delta is a behavior change (used by the CI golden-baseline gate)")
		bench    = flag.String("bench", "", "write a perf-tracking artifact (wall-clock, points/sec, jobs/sec) to this path after the run")
		benchGo  = flag.String("bench-go", "", "with -bench: merge `go test -bench` output from this file into the artifact (ns/op, B/op, allocs/op)")
		benchNm  = flag.String("bench-name", "", "with -bench: record the grid entry under this name instead of the grid's own (lets one artifact hold the same grid under different configurations, e.g. shard/d1 vs shard/d8)")
		benchApp = flag.Bool("bench-append", false, "with -bench: merge into an existing artifact instead of overwriting (entries with the same name are replaced)")
		diffB    = flag.Bool("diff-bench", false, "perf-diff two bench artifacts: toposweep -diff-bench -tol 0.5 old.json new.json; exits 2 on regression beyond tolerance")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this path")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (after the sweep) to this path")
	)
	flag.Parse()

	switch {
	case *diffB:
		res, err := diffBenchFiles(os.Stdout, flag.Args(), *tol, *tolMet, *wallOff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "toposweep:", err)
			os.Exit(1)
		}
		if res.HasRegressions() {
			os.Exit(2)
		}
	case *diff:
		res, err := diffFiles(os.Stdout, flag.Args(), diffTols{tol: *tol, stddev: *tolStd, p95: *tolP95, perMetric: *tolMet})
		if err != nil {
			fmt.Fprintln(os.Stderr, "toposweep:", err)
			os.Exit(1)
		}
		if res.HasRegressions() || (*strict && (res.Improvements > 0 || len(res.AddedCells) > 0)) {
			os.Exit(2)
		}
	case *list:
		if err := listGrids(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "toposweep:", err)
			os.Exit(1)
		}
	default:
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		opts := runOpts{
			out: *out, csv: *csv, bench: *bench, benchGo: *benchGo,
			benchName: *benchNm, benchAppend: *benchApp,
			cpuProfile: *cpuProf, memProfile: *memProf,
			seed: *seed, seedSet: seedSet, quiet: *quiet,
			workers: *workers,
		}
		if err := run(os.Stdout, *gridName, opts); err != nil {
			fmt.Fprintln(os.Stderr, "toposweep:", err)
			os.Exit(1)
		}
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

// diffTols bundles the result-differ tolerance flags.
type diffTols struct {
	tol, stddev, p95 float64
	perMetric        string
}

// parseMetricTolerances parses -tol-metric's comma-separated name=value
// list against the metric names the differ in use knows; "" is nil.
func parseMetricTolerances(spec string, known []string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("-tol-metric entry %q is not metric=value", pair)
		}
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("-tol-metric: unknown metric %q (use one of %v)", name, known)
		}
		t, err := strconv.ParseFloat(val, 64)
		if err != nil || t < 0 {
			return nil, fmt.Errorf("-tol-metric: bad tolerance %q for %s", val, name)
		}
		out[name] = t
	}
	return out, nil
}

// parseTolerances builds diff options from the tolerance flags.
func parseTolerances(tols diffTols) (sweep.DiffOptions, error) {
	per, err := parseMetricTolerances(tols.perMetric, sweep.DiffMetricNames())
	return sweep.DiffOptions{RelTol: tols.tol, StddevRelTol: tols.stddev, P95RelTol: tols.p95, PerMetric: per}, err
}

// diffFiles loads two JSON artifacts, diffs them under the tolerances and
// writes the markdown delta report. The caller decides the exit code from
// the returned result.
func diffFiles(w io.Writer, args []string, tols diffTols) (*sweep.DiffResult, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("-diff needs exactly two artifacts: toposweep -diff old.json new.json")
	}
	opt, err := parseTolerances(tols)
	if err != nil {
		return nil, err
	}
	reports := make([]*sweep.Report, 2)
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		reports[i], err = sweep.LoadReport(data, path)
		if err != nil {
			return nil, err
		}
	}
	res := sweep.Diff(reports[0], reports[1], opt)
	res.OldName, res.NewName = args[0], args[1]
	_, err = io.WriteString(w, res.Markdown())
	return res, err
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
	bench, benchGo         string
	benchName              string
	benchAppend            bool
	cpuProfile, memProfile string
	seedSet, quiet         bool
	seed                   uint64
}

func run(w io.Writer, gridName string, o runOpts) error {
	if o.benchGo != "" && o.bench == "" {
		// Fail before the sweep runs — on a scenario-2 grid this mistake
		// would otherwise surface only after hours of simulation.
		return fmt.Errorf("-bench-go requires -bench")
	}
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
	if o.bench != "" {
		if err := writeBench(w, rep, o); err != nil {
			return err
		}
	}
	return nil
}

// writeBench distills the run into the perf-tracking artifact, merging
// parsed `go test -bench` output when provided. benchName renames the
// grid entry and benchAppend folds it into an existing artifact — the
// pair lets one artifact carry the same grid under several
// configurations (the shard bench records shard/dN per domain count).
func writeBench(w io.Writer, rep *sweep.Report, o runOpts) error {
	br := &sweep.BenchReport{}
	if o.benchAppend {
		if data, err := os.ReadFile(o.bench); err == nil {
			prev, err := sweep.LoadBenchReport(data, o.bench)
			if err != nil {
				return err
			}
			br = prev
		}
	}
	gb := sweep.NewGridBench(rep)
	if o.benchName != "" {
		gb.Grid = o.benchName
	}
	br.AddGrid(gb)
	if o.benchGo != "" {
		text, err := os.ReadFile(o.benchGo)
		if err != nil {
			return fmt.Errorf("-bench-go: %w", err)
		}
		br.Benchmarks = sweep.ParseGoBenchOutput(string(text))
		if len(br.Benchmarks) == 0 {
			return fmt.Errorf("-bench-go: no benchmark lines found in %s", o.benchGo)
		}
	}
	js, err := br.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.bench, js, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d grid(s), %d benchmark(s))\n", o.bench, len(br.Grids), len(br.Benchmarks))
	return nil
}

// diffBenchFiles loads two bench artifacts and perf-diffs them under the
// tolerances; callers decide the exit code from the result.
func diffBenchFiles(w io.Writer, args []string, tol float64, tolMetric string, wallClockOff bool) (*sweep.DiffResult, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("-diff-bench needs exactly two artifacts: toposweep -diff-bench old.json new.json")
	}
	per, err := parseMetricTolerances(tolMetric, sweep.BenchDiffMetricNames())
	if err != nil {
		return nil, err
	}
	opt := sweep.BenchDiffOptions{RelTol: tol, WallClockOff: wallClockOff, PerMetric: per}
	reports := make([]*sweep.BenchReport, 2)
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		reports[i], err = sweep.LoadBenchReport(data, path)
		if err != nil {
			return nil, err
		}
	}
	res := sweep.DiffBench(reports[0], reports[1], opt)
	res.OldName, res.NewName = args[0], args[1]
	_, err = io.WriteString(w, res.Markdown())
	return res, err
}
