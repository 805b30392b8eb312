// Command topoviz renders the physical GPU topologies: the hierarchy tree
// with link annotations, the nvidia-smi-style connectivity matrix, and the
// GPU-to-GPU distance/bandwidth tables the scheduler reasons over.
// -topology takes the syntax toposerve, topoload and sweep cell keys share
// (sweep.ParseTopologyArg); a single machine is built standalone, without
// a network root.
//
//	topoviz -topology minsky
//	topoviz -topology dgx1 -matrix
//	topoviz -topology minsky:3
//	topoviz -topology 'mix[minsky:2+dgx1:1]'
//	topoviz -topology 'matrix[file.matrix]'
//	topoviz -topology 'matrix[file.matrix]:4'
package main

import (
	"flag"
	"fmt"
	"os"

	"gputopo/internal/sweep"
)

func main() {
	topology := flag.String("topology", "minsky", "topology in cell-key syntax: minsky, dgx1:4, mix[minsky:2+dgx1:1], matrix[file.matrix]:3")
	matrix := flag.Bool("matrix", false, "print the nvidia-smi-style connectivity matrix (single machines only; a matrix[...] machine always prints it)")
	flag.Parse()

	if err := run(*topology, *matrix); err != nil {
		fmt.Fprintln(os.Stderr, "topoviz:", err)
		os.Exit(1)
	}
}

func run(spec string, matrix bool) error {
	ts, err := sweep.ParseTopologyArg(spec)
	if err != nil {
		return err
	}
	if ts.Domains != "" {
		return fmt.Errorf("topology %q: a scheduling-domain split has no rendering; drop the /domains[...] segment", spec)
	}
	topo, err := ts.Build(ts.Machines, true)
	if err != nil {
		return err
	}

	fmt.Println(topo.RenderTree())
	if matrix && topo.NumMachines() > 1 {
		// RenderMatrix is single-machine format: cross-machine pairs
		// would render as SYS and parse back as one machine.
		return fmt.Errorf("-matrix renders single machines only; %s has %d machines", topo.Name, topo.NumMachines())
	}
	if matrix || (ts.MatrixFile != "" && topo.NumMachines() == 1) {
		fmt.Println(topo.RenderMatrix())
	}

	n := topo.NumGPUs()
	if n <= 16 {
		fmt.Println("GPU-to-GPU distance / effective bandwidth (GB/s) / P2P:")
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					fmt.Printf("%14s", "-")
					continue
				}
				fmt.Printf("  %4.0f/%4.1f/%-2v", topo.Distance(i, j), topo.EffectiveBandwidth(i, j), boolMark(topo.P2P(i, j)))
			}
			fmt.Println()
		}
	}
	return nil
}

func boolMark(b bool) string {
	if b {
		return "y"
	}
	return "n"
}
