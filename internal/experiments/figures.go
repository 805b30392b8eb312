package experiments

import (
	"strings"

	"gputopo/internal/sweep"
)

// Figure is one reproduced artifact of the paper: what cmd/topobench
// prints for -fig Key.
type Figure struct {
	Key   string // the -fig value
	Ref   string // the paper artifact it reproduces
	Title string // one line for help texts and docs
	// Grids names the registered sweep grids (sweep.GridNames) the figure
	// runs; nil for a pure function of the performance model.
	Grids []string
	// Run renders the figure. Everything but `overhead`, which reports
	// wall-clock decision times, is a pure function of the seed.
	Run func(seed uint64) (string, error)
}

// Figures is the table of every figure, in the paper's order: an
// experiment — a performance-model function or a registered grid — and the
// renderer of its result.
func Figures() []Figure {
	return []Figure{
		{Key: "3", Ref: "Figure 3", Title: "compute/communication breakdown",
			Run: model(Fig3Breakdown, RenderFig3)},
		{Key: "4", Ref: "Figure 4", Title: "pack vs spread speedup",
			Run: model(Fig4PackSpread, RenderFig4)},
		{Key: "5", Ref: "Figure 5", Title: "NVLink bandwidth over time",
			Run: seeded(Fig5Bandwidth, RenderFig5)},
		{Key: "6", Ref: "Figure 6", Title: "co-location interference",
			Run: model(Fig6Interference, RenderFig6)},
		{Key: "pcie", Ref: "§3.2", Title: "NVLink vs PCIe machines",
			Run: model(PCIeComparison, RenderPCIe)},
		{Key: "mp", Ref: "§2", Title: "model-parallel extension study",
			Run: model(ModelParallelStudy, RenderModelParallel)},
		{Key: "8", Ref: "Figure 8", Title: "prototype, Table 1 workload",
			Grids: []string{"table1"},
			Run:   seeded(Fig8Prototype, RenderFig8)},
		{Key: "9", Ref: "Figure 9", Title: "prototype vs simulation validation",
			Grids: []string{"table1"},
			Run:   seeded(Validate, RenderValidation)},
		{Key: "10", Ref: "Figure 10", Title: "scenario 1: 100 jobs, 5 machines",
			Grids: []string{"scenario1"},
			Run: seeded(Scenario1, func(rep *sweep.Report) string {
				return RenderScenario("Figure 10 — Scenario 1: 100 jobs, 5 machines", rep)
			})},
		{Key: "11", Ref: "Figure 11", Title: "scenario 2: 10k jobs, 1k machines",
			Grids: []string{"scenario2"},
			Run: seeded(Scenario2, func(rep *sweep.Report) string {
				return RenderScenario("Figure 11 — Scenario 2: 10000 jobs, 1000 machines", rep)
			})},
		{Key: "overhead", Ref: "§5.5.3", Title: "decision-time overhead",
			Grids: []string{"scenario2"},
			Run:   seeded(Overhead, RenderOverhead)},
		{Key: "ablations", Ref: "§4–§5", Title: "level-weight, α and threshold ablations",
			Grids: []string{"levelweights", "alpha", "threshold"},
			Run: func(seed uint64) (string, error) {
				var tables []string
				for _, run := range []func(uint64) (string, error){
					seeded(LevelWeightAblation, RenderWeightAblation),
					seeded(AlphaSweep, RenderAlphaSweep),
					seeded(ThresholdSweep, RenderThresholdSweep),
				} {
					out, err := run(seed)
					if err != nil {
						return "", err
					}
					tables = append(tables, out)
				}
				return strings.Join(tables, "\n"), nil
			}},
	}
}

// model is a figure that is a pure function of the performance model.
func model[T any](run func() T, render func(T) string) func(uint64) (string, error) {
	return func(uint64) (string, error) { return render(run()), nil }
}

// seeded is a figure whose experiment takes the seed and nothing else.
func seeded[T any](run func(uint64) (T, error), render func(T) string) func(uint64) (string, error) {
	return func(seed uint64) (string, error) {
		v, err := run(seed)
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}
