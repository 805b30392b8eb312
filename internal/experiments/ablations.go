package experiments

import (
	"fmt"

	"gputopo/internal/metrics"
	"gputopo/internal/schedcore"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
)

// Ablations for the design choices DESIGN.md calls out. These have no
// direct counterpart figure in the paper; they substantiate claims the
// paper makes in passing (§4.1.2: level weights are qualitative; §5.2.1:
// equal α weights; §4.4: postponement threshold behavior).

// WeightAblationRow records the placement quality under one socket-level
// weight setting.
type WeightAblationRow struct {
	SocketWeight float64
	Makespan     float64
	SLO          int
}

// LevelWeightAblation re-runs the Table 1 scenario under TOPO-AWARE-P with
// different socket-level distance weights, supporting the §4.1.2 claim
// that only the ordering of level weights matters: placements — and
// therefore makespans — should not change. It is a thin grid over the
// topology axis — one TopologySpec per socket weight — executed
// concurrently by the sweep engine (the explicit zero seed matches the
// pre-port serial loop, which ran the simulator with its zero-value
// config seed).
func LevelWeightAblation(socketWeights []float64) ([]WeightAblationRow, error) {
	if len(socketWeights) == 0 {
		return nil, nil // like the pre-port serial loop over zero weights
	}
	specs := make([]sweep.TopologySpec, len(socketWeights))
	for i, w := range socketWeights {
		specs[i] = sweep.TopologySpec{
			Builder: topology.KindMinsky.String(),
			Weights: &topology.LevelWeights{Socket: w},
		}
	}
	rep, err := sweep.Run(sweep.Grid{
		Name:       "levelweights",
		Source:     sweep.SourceTable1,
		Policies:   []schedcore.Policy{schedcore.TopoAwareP},
		Topologies: specs,
		Seeds:      []uint64{0},
	}, sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("weight ablation: %w", err)
	}
	rows := make([]WeightAblationRow, len(rep.Points))
	for i, p := range rep.Points {
		rows[i] = WeightAblationRow{
			SocketWeight: p.Topology.Weights.Socket,
			Makespan:     p.Makespan,
			SLO:          p.SLOViolations,
		}
	}
	return rows, nil
}

// RenderWeightAblation formats the level-weight ablation.
func RenderWeightAblation(rows []WeightAblationRow) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			fmt.Sprintf("%g", r.SocketWeight),
			fmt.Sprintf("%.1f", r.Makespan),
			fmt.Sprintf("%d", r.SLO),
		})
	}
	return "Ablation: socket-level distance weight (§4.1.2 — only ordering matters)\n" +
		metrics.Table([]string{"socket weight", "makespan(s)", "SLO-viol"}, tr)
}

// AlphaRow records scenario quality for one αcc setting.
type AlphaRow struct {
	AlphaCC  float64
	Makespan float64
	SLO      int
	MeanQoS  float64
}

// AlphaSweep varies the communication-cost weight αcc (splitting the
// remainder equally between interference and fragmentation) on the
// scenario-1 workload under TOPO-AWARE-P. It is a thin grid over the
// α axis, executed concurrently by the sweep engine; every α point
// regenerates the identical workload stream from the shared seed.
func AlphaSweep(alphas []float64, jobs, machines int, seed uint64) ([]AlphaRow, error) {
	if len(alphas) == 0 {
		return nil, nil // like the pre-port serial loop over zero alphas
	}
	rep, err := sweep.Run(sweep.Grid{
		Name:     "alpha",
		Policies: []schedcore.Policy{schedcore.TopoAwareP},
		Machines: []int{machines},
		Jobs:     []int{jobs},
		AlphasCC: alphas,
		Seeds:    []uint64{seed},
	}, sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("alpha sweep: %w", err)
	}
	rows := make([]AlphaRow, len(rep.Points))
	for i, p := range rep.Points {
		rows[i] = AlphaRow{
			AlphaCC:  p.AlphaCC,
			Makespan: p.Makespan,
			SLO:      p.SLOViolations,
			MeanQoS:  p.MeanQoS,
		}
	}
	return rows, nil
}

// RenderAlphaSweep formats the α sweep.
func RenderAlphaSweep(rows []AlphaRow) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			fmt.Sprintf("%.2f", r.AlphaCC),
			fmt.Sprintf("%.1f", r.Makespan),
			fmt.Sprintf("%d", r.SLO),
			fmt.Sprintf("%.3f", r.MeanQoS),
		})
	}
	return "Ablation: utility weight αcc sweep (TOPO-AWARE-P, scenario 1)\n" +
		metrics.Table([]string{"αcc", "makespan(s)", "SLO-viol", "mean QoS slow"}, tr)
}

// ThresholdRow records scenario quality for one min-utility override.
type ThresholdRow struct {
	MinUtility float64
	Makespan   float64
	SLO        int
	TotalWait  float64
}

// ThresholdSweep overrides every multi-GPU job's minimum utility and
// re-runs scenario 1 under TOPO-AWARE-P, exposing the waiting-time/QoS
// trade-off that separates TOPO-AWARE-P from TOPO-AWARE (threshold 0
// makes P behave exactly like TOPO-AWARE). It is a thin grid over the
// threshold axis, executed concurrently by the sweep engine.
func ThresholdSweep(thresholds []float64, jobs, machines int, seed uint64) ([]ThresholdRow, error) {
	if len(thresholds) == 0 {
		return nil, nil // like the pre-port serial loop over zero thresholds
	}
	rep, err := sweep.Run(sweep.Grid{
		Name:       "threshold",
		Policies:   []schedcore.Policy{schedcore.TopoAwareP},
		Machines:   []int{machines},
		Jobs:       []int{jobs},
		Thresholds: thresholds,
		Seeds:      []uint64{seed},
	}, sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("threshold sweep: %w", err)
	}
	rows := make([]ThresholdRow, len(rep.Points))
	for i, p := range rep.Points {
		rows[i] = ThresholdRow{
			MinUtility: p.Point.Threshold,
			Makespan:   p.Makespan,
			SLO:        p.SLOViolations,
			TotalWait:  p.TotalWait,
		}
	}
	return rows, nil
}

// RenderThresholdSweep formats the postponement-threshold sweep.
func RenderThresholdSweep(rows []ThresholdRow) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			fmt.Sprintf("%.2f", r.MinUtility),
			fmt.Sprintf("%.1f", r.Makespan),
			fmt.Sprintf("%d", r.SLO),
			fmt.Sprintf("%.1f", r.TotalWait),
		})
	}
	return "Ablation: TOPO-AWARE-P postponement threshold sweep (scenario 1)\n" +
		metrics.Table([]string{"min utility", "makespan(s)", "SLO-viol", "total wait(s)"}, tr)
}
