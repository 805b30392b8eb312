package experiments

import (
	"fmt"
	"strings"
	"time"

	"gputopo/internal/metrics"
	"gputopo/internal/schedcore"
	"gputopo/internal/sweep"
)

// Overhead measures the placement-decision time of every policy,
// reproducing §5.5.3 (the paper reports ≈3 s for the topology-aware
// policies vs ≈0.45 s for the greedy ones at scenario 2 scale — a ≈6.7x
// ratio; absolute times differ on our hardware, the ratio is the
// reproduced quantity). It is the `scenario2` grid at 1000 jobs on 100
// machines with the generator's cluster-wide arrival rate, on one worker:
// decision time is wall clock, and policies timed side by side would
// measure each other.
func Overhead(seed uint64) (*sweep.Report, error) {
	return runGrid("scenario2", seed, 1, func(g *sweep.Grid) {
		g.Jobs, g.Machines = []int{1000}, []int{100}
		g.RatePerMachine = 0
	})
}

// RenderOverhead formats the decision-cost table with the topo/greedy
// ratio the paper highlights.
func RenderOverhead(rep *sweep.Report) string {
	var tr [][]string
	var greedy, topo time.Duration
	var greedyN, topoN int
	for _, p := range rep.Points {
		st := p.Sim.SchedStats
		mean := st.MeanDecisionTime()
		tr = append(tr, []string{
			p.Policy.String(),
			mean.String(),
			st.MaxDecision.String(),
			fmt.Sprintf("%d", st.Decisions),
		})
		switch p.Policy {
		case schedcore.FCFS, schedcore.BestFit:
			greedy += mean
			greedyN++
		default:
			topo += mean
			topoN++
		}
	}
	var sb strings.Builder
	sb.WriteString("§5.5.3: scheduling decision overhead\n")
	sb.WriteString(metrics.Table([]string{"policy", "mean decision", "max decision", "decisions"}, tr))
	if greedyN > 0 && topoN > 0 && greedy > 0 {
		ratio := float64(topo/time.Duration(topoN)) / float64(greedy/time.Duration(greedyN))
		fmt.Fprintf(&sb, "topo/greedy mean-decision ratio: %.1fx (paper: ≈6.7x — 3s vs 0.45s)\n", ratio)
	}
	return sb.String()
}
