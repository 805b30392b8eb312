// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 and §5). Each function runs the corresponding experiment
// on the simulated substrate and returns both structured results (asserted
// by tests and benchmarks) and an ASCII rendering (printed by
// cmd/topobench). EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strings"

	"gputopo/internal/caffesim"
	"gputopo/internal/job"
	"gputopo/internal/jobgraph"
	"gputopo/internal/metrics"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/sweep"
	"gputopo/internal/topology"
)

// BatchSweep is the per-GPU batch sizes of Figures 3–5.
var BatchSweep = []int{1, 2, 4, 8, 16, 32, 64, 128}

// Fig3Row is one bar group of Figure 3: the compute/communication split of
// a model × batch × strategy combination.
type Fig3Row struct {
	Model       perfmodel.NN
	Batch       int
	Strategy    string // "pack" or "spread"
	ComputeFrac float64
	CommFrac    float64
}

// Fig3Breakdown reproduces Figure 3: percentage of execution time spent in
// GPU computation vs. GPU communication for AlexNet, CaffeRef and
// GoogLeNet under pack (P2P) and spread (no P2P) placements.
func Fig3Breakdown() []Fig3Row {
	topo := topology.Power8Minsky()
	pack := []int{0, 1}
	spread := []int{0, 2}
	var rows []Fig3Row
	for m := perfmodel.NN(0); m < perfmodel.NumNN; m++ {
		for _, b := range []int{1, 4, 32, 128} {
			cp, mp := perfmodel.Breakdown(m, b, topo, pack)
			rows = append(rows, Fig3Row{Model: m, Batch: b, Strategy: "pack", ComputeFrac: cp, CommFrac: mp})
			cs, ms := perfmodel.Breakdown(m, b, topo, spread)
			rows = append(rows, Fig3Row{Model: m, Batch: b, Strategy: "spread", ComputeFrac: cs, CommFrac: ms})
		}
	}
	return rows
}

// RenderFig3 formats Figure 3 as a table.
func RenderFig3(rows []Fig3Row) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			r.Model.String(), fmt.Sprintf("%d", r.Batch), r.Strategy,
			fmt.Sprintf("%5.1f%%", r.ComputeFrac*100),
			fmt.Sprintf("%5.1f%%", r.CommFrac*100),
		})
	}
	return "Figure 3: GPU computation vs communication share of execution time\n" +
		metrics.Table([]string{"model", "batch", "strategy", "compute", "comm"}, tr)
}

// Fig4Row is one point of Figure 4: pack-vs-spread speedup.
type Fig4Row struct {
	Model   perfmodel.NN
	Batch   int
	Speedup float64
}

// Fig4PackSpread reproduces Figure 4: the speedup of pack (same-socket,
// P2P) over spread (cross-socket) placements as a function of batch size.
func Fig4PackSpread() []Fig4Row {
	topo := topology.Power8Minsky()
	var rows []Fig4Row
	for m := perfmodel.NN(0); m < perfmodel.NumNN; m++ {
		for _, b := range BatchSweep {
			rows = append(rows, Fig4Row{
				Model:   m,
				Batch:   b,
				Speedup: perfmodel.PackSpreadSpeedup(m, b, topo, 1),
			})
		}
	}
	return rows
}

// RenderFig4 formats Figure 4 as a table plus chart.
func RenderFig4(rows []Fig4Row) string {
	var tr [][]string
	series := map[perfmodel.NN][]metrics.Point{}
	for _, r := range rows {
		tr = append(tr, []string{r.Model.String(), fmt.Sprintf("%d", r.Batch), fmt.Sprintf("%.3f", r.Speedup)})
		series[r.Model] = append(series[r.Model], metrics.Point{X: float64(r.Batch), Y: r.Speedup})
	}
	var ss []metrics.Series
	for m := perfmodel.NN(0); m < perfmodel.NumNN; m++ {
		ss = append(ss, metrics.Series{Name: m.String(), Points: series[m]})
	}
	return "Figure 4: Pack (P2P) vs Spread (No-P2P) speedup; >1 means pack wins\n" +
		metrics.Table([]string{"model", "batch", "speedup"}, tr) + "\n" +
		metrics.LineChart("speedup vs batch size", ss, 64, 12)
}

// Fig5Series is the NVLink bandwidth usage over time for one batch size.
type Fig5Series struct {
	Batch  int
	Points []caffesim.BandwidthPoint
	Mean   float64
	Peak   float64
}

// Fig5Bandwidth reproduces Figure 5: the interconnect bandwidth usage over
// time of a solo 2-GPU AlexNet job at batch sizes 1, 4, 64 and 128,
// sampled in 1-second windows like the prototype's nvidia-smi polling.
// The four batch sizes run concurrently on the sweep engine's pool; each
// writes into its own slot, so the series order is fixed.
func Fig5Bandwidth(seed uint64) ([]Fig5Series, error) {
	batches := []int{1, 4, 64, 128}
	out := make([]Fig5Series, len(batches))
	err := sweep.ForEach(len(batches), 0, func(i int) error {
		b := batches[i]
		topo := topology.Power8Minsky()
		j := job.New("fig5", perfmodel.AlexNet, b, 2, 0.5, 0)
		// Run long enough to fill ~250 s of samples like the figure.
		iter := perfmodel.IterationTime(perfmodel.AlexNet, b, topo, []int{0, 1}, 1)
		j.Iterations = int(250 / iter)
		if j.Iterations < 10 {
			j.Iterations = 10
		}
		res, err := caffesim.Run(caffesim.Config{
			Topology: topo,
			Policy:   schedcore.TopoAware,
			Seed:     seed,
		}, []*job.Job{j})
		if err != nil {
			return fmt.Errorf("fig5 batch %d: %w", b, err)
		}
		pts := res.Bandwidth["fig5"]
		var sum, peak float64
		for _, p := range pts {
			sum += p.GBs
			if p.GBs > peak {
				peak = p.GBs
			}
		}
		mean := 0.0
		if len(pts) > 0 {
			mean = sum / float64(len(pts))
		}
		out[i] = Fig5Series{Batch: b, Points: pts, Mean: mean, Peak: peak}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderFig5 formats the bandwidth time series.
func RenderFig5(series []Fig5Series) string {
	var ss []metrics.Series
	var tr [][]string
	for _, s := range series {
		pts := make([]metrics.Point, 0, len(s.Points))
		for _, p := range s.Points {
			if p.Time > 250 {
				break
			}
			pts = append(pts, metrics.Point{X: p.Time, Y: p.GBs})
		}
		ss = append(ss, metrics.Series{Name: fmt.Sprintf("batch %d", s.Batch), Points: pts})
		tr = append(tr, []string{
			fmt.Sprintf("%d", s.Batch),
			fmt.Sprintf("%.2f", s.Mean),
			fmt.Sprintf("%.2f", s.Peak),
		})
	}
	return "Figure 5: NVLink bandwidth usage over time, AlexNet (1s windows)\n" +
		metrics.Table([]string{"batch", "mean GB/s", "peak GB/s"}, tr) + "\n" +
		metrics.LineChart("GB/s vs time (s)", ss, 64, 12)
}

// Fig6Cell is one cell of Figure 6's co-location slowdown matrix.
type Fig6Cell struct {
	Victim, Causer jobgraph.BatchClass
	Slowdown       float64
}

// Fig6Interference reproduces Figure 6: the slowdown a 2-GPU AlexNet job
// suffers when co-located with another 2-GPU AlexNet job on the same
// machine, for every pair of batch classes.
func Fig6Interference() []Fig6Cell {
	var cells []Fig6Cell
	for v := jobgraph.BatchTiny; v <= jobgraph.BatchBig; v++ {
		for c := jobgraph.BatchTiny; c <= jobgraph.BatchBig; c++ {
			victim := perfmodel.Traits{Model: perfmodel.AlexNet, Class: v, GPUs: 2}
			causer := perfmodel.Traits{Model: perfmodel.AlexNet, Class: c, GPUs: 2}
			cells = append(cells, Fig6Cell{
				Victim:   v,
				Causer:   c,
				Slowdown: perfmodel.CoLocationSlowdown(victim, causer, perfmodel.SameMachine),
			})
		}
	}
	return cells
}

// RenderFig6 formats the interference matrix.
func RenderFig6(cells []Fig6Cell) string {
	headers := []string{"victim \\ causer", "tiny", "small", "medium", "big"}
	rows := make([][]string, 4)
	for v := 0; v < 4; v++ {
		rows[v] = make([]string, 5)
		rows[v][0] = jobgraph.BatchClass(v).String()
	}
	for _, c := range cells {
		rows[c.Victim][int(c.Causer)+1] = fmt.Sprintf("%4.1f%%", c.Slowdown*100)
	}
	return "Figure 6: co-location slowdown (two 2-GPU AlexNet jobs, one machine)\n" +
		metrics.Table(headers, rows)
}

// PCIeRow is one point of the §3.2 NVLink-vs-PCIe comparison.
type PCIeRow struct {
	Batch         int
	NVLinkSpeedup float64
	PCIeSpeedup   float64
}

// PCIeComparison reproduces the §3.2 text experiment: pack-vs-spread
// speedups on the NVLink/P100 machine against the PCIe-Gen3/K80 machine.
func PCIeComparison() []PCIeRow {
	nv := topology.Power8Minsky()
	pcie := topology.PCIeBox()
	var rows []PCIeRow
	for _, b := range BatchSweep {
		rows = append(rows, PCIeRow{
			Batch:         b,
			NVLinkSpeedup: perfmodel.PackSpreadSpeedup(perfmodel.AlexNet, b, nv, 1),
			PCIeSpeedup:   perfmodel.PackSpreadSpeedup(perfmodel.AlexNet, b, pcie, perfmodel.K80ComputeScale),
		})
	}
	return rows
}

// RenderPCIe formats the NVLink-vs-PCIe comparison.
func RenderPCIe(rows []PCIeRow) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			fmt.Sprintf("%d", r.Batch),
			fmt.Sprintf("%.3f", r.NVLinkSpeedup),
			fmt.Sprintf("%.3f", r.PCIeSpeedup),
		})
	}
	return "§3.2: AlexNet pack-vs-spread speedup, NVLink/P100 vs PCIe/K80\n" +
		metrics.Table([]string{"batch", "NVLink", "PCIe"}, tr)
}

// MultiPolicy holds the four-policy comparison of one scenario.
type MultiPolicy struct {
	Results []*simulator.Result // in schedcore.AllPolicies() order
}

// ByPolicy returns the result for the given policy.
func (m *MultiPolicy) ByPolicy(p schedcore.Policy) *simulator.Result {
	for _, r := range m.Results {
		if r.Policy == p {
			return r
		}
	}
	return nil
}

// multiPolicyFrom collects a single-cell sweep's results into the
// paper's presentation order.
func multiPolicyFrom(rep *sweep.Report) *MultiPolicy {
	out := &MultiPolicy{}
	for _, pol := range schedcore.AllPolicies() {
		if pr := rep.ByPolicy(pol); pr != nil {
			out.Results = append(out.Results, pr.Sim)
		}
	}
	return out
}

// Fig8Prototype reproduces the §5.2 prototype experiment: the Table 1 six
// job workload on one Minsky machine under all four policies, executed at
// iteration granularity by the prototype engine — a one-cell sweep over
// the policy axis.
func Fig8Prototype(seed uint64) (*MultiPolicy, map[schedcore.Policy]*caffesim.Result, error) {
	rep, err := sweep.Run(sweep.Grid{
		Name:   "fig8",
		Source: sweep.SourceTable1,
		Engine: sweep.EngineProto,
		Seeds:  []uint64{seed},
	}, sweep.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("fig8: %w", err)
	}
	protos := map[schedcore.Policy]*caffesim.Result{}
	for _, pol := range schedcore.AllPolicies() {
		if pr := rep.ByPolicy(pol); pr != nil {
			protos[pol] = pr.Proto
		}
	}
	return multiPolicyFrom(rep), protos, nil
}

// Fig9Validation reproduces §5.4: the same Table 1 scenario on the
// trace-driven simulator, for comparison against the prototype results
// (the two engines should agree within iteration-boundary noise).
func Fig9Validation(seed uint64) (*MultiPolicy, error) {
	rep, err := sweep.Run(sweep.Grid{
		Name:           "fig9",
		Source:         sweep.SourceTable1,
		Seeds:          []uint64{seed},
		SampleInterval: 4,
	}, sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	return multiPolicyFrom(rep), nil
}

// Scenario runs the large-scale simulation of §5.5 with the given scale
// (Scenario 1: 100 jobs / 5 machines; Scenario 2: 10k jobs / 1k machines)
// as a one-cell sweep over the policy axis, so the four policies run
// concurrently. The Poisson arrival rate scales with the cluster size so
// the per-machine pressure matches scenario 1's λ = 10 jobs/minute on 5
// machines (the paper specifies λ = 10 for the workload generator but not
// how scenario 2 stays "heavily loaded"; constant per-machine load is the
// substitution that preserves the queueing behaviour its figures show).
func Scenario(jobs, machines int, seed uint64) (*MultiPolicy, error) {
	rep, err := sweep.Run(sweep.Grid{
		Name:           "scenario",
		Machines:       []int{machines},
		Jobs:           []int{jobs},
		Seeds:          []uint64{seed},
		RatePerMachine: 2, // λ = 10 jobs/minute per 5 machines
	}, sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return multiPolicyFrom(rep), nil
}

// RenderScenario formats a multi-policy comparison with both slowdown
// charts (the two panels of Figures 10 and 11).
func RenderScenario(title string, mp *MultiPolicy) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	sb.WriteString(metrics.CompareRuns(mp.Results))
	sb.WriteString("\n")
	sb.WriteString(metrics.SlowdownChart("(a) JOB'S QOS — slowdown, jobs ordered worst to best", mp.Results, false, 64, 10))
	sb.WriteString("\n")
	sb.WriteString(metrics.SlowdownChart("(b) JOB'S QOS + WAITING TIME", mp.Results, true, 64, 10))
	return sb.String()
}
