package experiments

import (
	"fmt"
	"strings"

	"gputopo/internal/metrics"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/sweep"
)

// runGrid runs the registered sweep grid with the literal seed as its
// single replica — a figure prints one run, not a distribution — after pin
// (when non-nil) has set what the figure fixes on top of the grid.
// sweep.Named is the only place the grid's axes are spelled out.
func runGrid(name string, seed uint64, workers int, pin func(*sweep.Grid)) (*sweep.Report, error) {
	g, err := sweep.Named(name, seed)
	if err != nil {
		return nil, err
	}
	g.Seeds = []uint64{seed}
	if pin != nil {
		pin(&g)
	}
	return sweep.Run(g, sweep.Options{Workers: workers})
}

// simResults lists a report's simulator results in point order. Every
// grid a figure renders this way varies only the policy axis, so that is
// schedcore.AllPolicies() order — the paper's presentation order.
func simResults(rep *sweep.Report) []*simulator.Result {
	out := make([]*simulator.Result, len(rep.Points))
	for i := range rep.Points {
		out[i] = rep.Points[i].Sim
	}
	return out
}

// Fig8Prototype reproduces the §5.2 prototype experiment: the Table 1 six
// job workload on one Minsky machine under all four policies, executed at
// iteration granularity by the prototype engine.
func Fig8Prototype(seed uint64) (*sweep.Report, error) {
	return runGrid("table1", seed, 0, func(g *sweep.Grid) { g.Engine = sweep.EngineProto })
}

// RenderFig8 formats the full prototype figure: per-policy timelines
// (panels a–d), the slowdown charts (panels e–f) and the cumulative
// execution time comparison of §5.2.2.
func RenderFig8(rep *sweep.Report) string {
	results := simResults(rep)
	var sb strings.Builder
	sb.WriteString("Figure 8: prototype — Table 1 workload on one Power8 Minsky\n\n")
	for _, r := range results {
		sb.WriteString(metrics.Timeline(r, 4, 72))
		sb.WriteString("\n")
	}
	sb.WriteString(metrics.CompareRuns(results))
	sb.WriteString("\n")
	sb.WriteString(metrics.SlowdownChart("(e) JOB'S QOS — slowdown vs ideal, worst to best", results, false, 64, 10))
	sb.WriteString("\n")
	sb.WriteString(metrics.SlowdownChart("(f) JOB'S QOS + WAITING TIME", results, true, 64, 10))
	return sb.String()
}

// ValidationRow compares prototype and simulator outcomes for one policy
// (§5.4, Figure 9).
type ValidationRow struct {
	Policy            schedcore.Policy
	PrototypeMakespan float64
	SimulatorMakespan float64
	RelativeError     float64
}

// Validate runs the Table 1 scenario on both engines and reports the
// relative makespan differences — the §5.4 claim is that they "behave very
// similarly ... despite some expected small differences."
func Validate(seed uint64) ([]ValidationRow, error) {
	proto, err := Fig8Prototype(seed)
	if err != nil {
		return nil, err
	}
	sim, err := runGrid("table1", seed, 0, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]ValidationRow, len(proto.Points))
	for i, pr := range proto.Points {
		sr := sim.Points[i]
		rel := 0.0
		if pr.Makespan > 0 {
			rel = (sr.Makespan - pr.Makespan) / pr.Makespan
		}
		rows[i] = ValidationRow{
			Policy:            pr.Policy,
			PrototypeMakespan: pr.Makespan,
			SimulatorMakespan: sr.Makespan,
			RelativeError:     rel,
		}
	}
	return rows, nil
}

// RenderValidation formats the §5.4 validation table.
func RenderValidation(rows []ValidationRow) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			r.Policy.String(),
			fmt.Sprintf("%.1f", r.PrototypeMakespan),
			fmt.Sprintf("%.1f", r.SimulatorMakespan),
			fmt.Sprintf("%+.2f%%", r.RelativeError*100),
		})
	}
	return "Figure 9 / §5.4: prototype vs simulation validation (cumulative time)\n" +
		metrics.Table([]string{"policy", "prototype(s)", "simulator(s)", "rel. diff"}, tr)
}

// Scenario1 runs the large-scale simulation of §5.5 at scenario 1's
// published scale (100 jobs, 5 machines) under all four policies.
func Scenario1(seed uint64) (*sweep.Report, error) {
	return runGrid("scenario1", seed, 0, nil)
}

// Scenario2 runs §5.5's scenario 2 at its published scale (10k jobs, 1k
// machines) under all four policies. The grid's per-machine arrival rate
// keeps the pressure of scenario 1's λ = 10 jobs/minute on 5 machines
// (the paper specifies λ = 10 for the workload generator but not how
// scenario 2 stays "heavily loaded"; constant per-machine load is the
// substitution that preserves the queueing behaviour its figures show).
func Scenario2(seed uint64) (*sweep.Report, error) {
	return runGrid("scenario2", seed, 0, nil)
}

// RenderScenario formats a multi-policy comparison with both slowdown
// charts (the two panels of Figures 10 and 11).
func RenderScenario(title string, rep *sweep.Report) string {
	results := simResults(rep)
	var sb strings.Builder
	sb.WriteString(title + "\n")
	sb.WriteString(metrics.CompareRuns(results))
	sb.WriteString("\n")
	sb.WriteString(metrics.SlowdownChart("(a) JOB'S QOS — slowdown, jobs ordered worst to best", results, false, 64, 10))
	sb.WriteString("\n")
	sb.WriteString(metrics.SlowdownChart("(b) JOB'S QOS + WAITING TIME", results, true, 64, 10))
	return sb.String()
}
