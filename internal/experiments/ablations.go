package experiments

import (
	"fmt"

	"gputopo/internal/metrics"
	"gputopo/internal/sweep"
)

// Ablations with no direct counterpart figure in the paper; they
// substantiate claims the paper makes in passing (§4.1.2: level weights
// are qualitative; §5.2.1: equal α weights; §4.4: postponement threshold
// behavior — the `-fig ablations` rows of docs/reproducing-the-paper.md).
// Each is the registered grid of the same name at one replica, so
// `topobench -fig ablations` and `toposweep -grid <name>` sweep the same
// axis values.

// LevelWeightAblation re-runs the Table 1 scenario under TOPO-AWARE-P with
// different socket-level distance weights (the `levelweights` grid: one
// topology spec per weight), supporting the §4.1.2 claim that only the
// ordering of level weights matters: placements — and therefore makespans
// — should not change.
func LevelWeightAblation(seed uint64) (*sweep.Report, error) {
	return runGrid("levelweights", seed, 0, nil)
}

// RenderWeightAblation formats the level-weight ablation.
func RenderWeightAblation(rep *sweep.Report) string {
	var tr [][]string
	for _, p := range rep.Points {
		tr = append(tr, []string{
			fmt.Sprintf("%g", p.Topology.Weights.Socket),
			fmt.Sprintf("%.1f", p.Makespan),
			fmt.Sprintf("%d", p.SLOViolations),
		})
	}
	return "Ablation: socket-level distance weight (§4.1.2 — only ordering matters)\n" +
		metrics.Table([]string{"socket weight", "makespan(s)", "SLO-viol"}, tr)
}

// AlphaSweep varies the communication-cost weight αcc (splitting the
// remainder equally between interference and fragmentation) on the
// scenario-1 workload under TOPO-AWARE-P (the `alpha` grid); every α point
// regenerates the identical workload stream from the shared seed.
func AlphaSweep(seed uint64) (*sweep.Report, error) {
	return runGrid("alpha", seed, 0, nil)
}

// RenderAlphaSweep formats the α sweep.
func RenderAlphaSweep(rep *sweep.Report) string {
	var tr [][]string
	for _, p := range rep.Points {
		tr = append(tr, []string{
			fmt.Sprintf("%.2f", p.AlphaCC),
			fmt.Sprintf("%.1f", p.Makespan),
			fmt.Sprintf("%d", p.SLOViolations),
			fmt.Sprintf("%.3f", p.MeanQoS),
		})
	}
	return "Ablation: utility weight αcc sweep (TOPO-AWARE-P, scenario 1)\n" +
		metrics.Table([]string{"αcc", "makespan(s)", "SLO-viol", "mean QoS slow"}, tr)
}

// ThresholdSweep overrides every multi-GPU job's minimum utility and
// re-runs scenario 1 under TOPO-AWARE-P (the `threshold` grid), exposing
// the waiting-time/QoS trade-off of §4.4's postponement. Threshold 0
// removes low-utility postponement only: TOPO-AWARE-P still walks past
// blocked jobs and runs later ones out of order, so its threshold-0 row is
// not TOPO-AWARE's.
func ThresholdSweep(seed uint64) (*sweep.Report, error) {
	return runGrid("threshold", seed, 0, nil)
}

// RenderThresholdSweep formats the postponement-threshold sweep.
func RenderThresholdSweep(rep *sweep.Report) string {
	var tr [][]string
	for _, p := range rep.Points {
		tr = append(tr, []string{
			fmt.Sprintf("%.2f", p.Point.Threshold),
			fmt.Sprintf("%.1f", p.Makespan),
			fmt.Sprintf("%d", p.SLOViolations),
			fmt.Sprintf("%.1f", p.TotalWait),
		})
	}
	return "Ablation: TOPO-AWARE-P postponement threshold sweep (scenario 1)\n" +
		metrics.Table([]string{"min utility", "makespan(s)", "SLO-viol", "total wait(s)"}, tr)
}
