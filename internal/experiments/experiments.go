// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 and §5). Figures (figures.go) is the one table of them:
// each entry is either a pure function of the performance model (this
// file, modelparallel.go) or a registered sweep grid plus a renderer
// (scenarios.go). cmd/topobench prints the table's entries and pins each
// one to a recorded golden; docs/reproducing-the-paper.md maps them to the
// paper.
package experiments

import (
	"fmt"

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
	Points []simulator.BandwidthPoint
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
		res, err := simulator.RunPrototype(simulator.PrototypeConfig{
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
