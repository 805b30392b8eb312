// Command topobench regenerates every table and figure of the paper's
// evaluation on the simulated substrate. Select an experiment with -fig
// (the list is experiments.Figures; main_test.go holds this comment to it):
//
//	topobench -fig 3          Figure 3   (compute/communication breakdown)
//	topobench -fig 4          Figure 4   (pack vs spread speedup)
//	topobench -fig 5          Figure 5   (NVLink bandwidth over time)
//	topobench -fig 6          Figure 6   (co-location interference)
//	topobench -fig pcie       §3.2       (NVLink vs PCIe machines)
//	topobench -fig mp         §2         (model-parallel extension study)
//	topobench -fig 8          Figure 8   (prototype, Table 1 workload)
//	topobench -fig 9          Figure 9   (prototype vs simulation validation)
//	topobench -fig 10         Figure 10  (scenario 1: 100 jobs, 5 machines)
//	topobench -fig 11         Figure 11  (scenario 2: 10k jobs, 1k machines)
//	topobench -fig overhead   §5.5.3     (decision-time overhead)
//	topobench -fig ablations  §4–§5      (level-weight, α and threshold ablations)
//	topobench -fig all        everything above
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gputopo/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "experiment to run: "+strings.Join(keys(), ","))
	seed := flag.Uint64("seed", 42, "random seed for workload generation and jitter")
	flag.Parse()

	if err := run(os.Stdout, *fig, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
}

// keys lists the valid -fig values in table order.
func keys() []string {
	var ks []string
	for _, f := range experiments.Figures() {
		ks = append(ks, f.Key)
	}
	return append(ks, "all")
}

// run prints the figure with the given key, or every figure for "all".
func run(w io.Writer, fig string, seed uint64) error {
	known := false
	for _, f := range experiments.Figures() {
		if fig != "all" && fig != f.Key {
			continue
		}
		known = true
		out, err := f.Run(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (use one of %s)", fig, strings.Join(keys(), ","))
	}
	return nil
}
