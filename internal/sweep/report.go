package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"gputopo/internal/metrics"
	"gputopo/internal/schedcore"
	"gputopo/internal/simulator"
	"gputopo/internal/stats"
)

// PointResult pairs a point with the scalar metrics distilled from its
// run. The raw engine results are retained for callers (the experiments
// package rebuilds its figure structures from them) but excluded from
// serialization: artifacts carry only deterministic scalars.
type PointResult struct {
	Point
	Makespan        float64 `json:"makespan_s"`
	SLOViolations   int     `json:"slo_violations"`
	MeanQoS         float64 `json:"mean_slowdown_qos"`
	MeanQoSWait     float64 `json:"mean_slowdown_qos_wait"`
	TotalWait       float64 `json:"total_wait_s"`
	JobsFinished    int     `json:"jobs_finished"`
	Placements      int     `json:"placements"`
	Postponements   int     `json:"postponements"`
	SLOViolationPct float64 `json:"slo_violation_pct"`
	// Priority-class metrics, all zero — and omitted, keeping
	// pre-priority artifacts byte-identical — unless the workload carries
	// positive-priority jobs or the scheduler preempted.
	Preemptions int     `json:"preemptions,omitempty"`
	HighPriJobs int     `json:"high_pri_jobs,omitempty"`
	HighPriWait float64 `json:"high_pri_wait_s,omitempty"`

	// Sim is always populated; Proto only for EngineProto points.
	Sim   *simulator.Result          `json:"-"`
	Proto *simulator.PrototypeResult `json:"-"`
}

func newPointResult(p Point, out *RunOutput) PointResult {
	res := out.Sim
	pr := PointResult{
		Point:         p,
		Makespan:      res.Makespan,
		SLOViolations: res.SLOViolations(),
		MeanQoS:       res.MeanSlowdownQoS(),
		MeanQoSWait:   res.MeanSlowdownQoSWait(),
		TotalWait:     res.TotalWait(),
		JobsFinished:  len(res.Jobs),
		Placements:    res.SchedStats.Placements,
		Postponements: res.SchedStats.Postponements,
		Sim:           res,
		Proto:         out.Proto,
	}
	if pr.JobsFinished > 0 {
		pr.SLOViolationPct = 100 * float64(pr.SLOViolations) / float64(pr.JobsFinished)
	}
	pr.Preemptions = res.SchedStats.Preemptions
	var hiWait float64
	for _, jr := range res.Jobs {
		if jr.Job.Priority > 0 {
			pr.HighPriJobs++
			hiWait += jr.Wait
		}
	}
	if pr.HighPriJobs > 0 {
		pr.HighPriWait = hiWait / float64(pr.HighPriJobs)
	}
	return pr
}

// CellSummary aggregates the seed replicas of one grid cell (all axes
// except the replica) with descriptive statistics from internal/stats.
type CellSummary struct {
	Engine        Engine           `json:"engine"`
	Source        Source           `json:"source"`
	Policy        schedcore.Policy `json:"policy"`
	Topology      TopologySpec     `json:"topology"`
	Machines      int              `json:"machines"`
	Jobs          int              `json:"jobs"`
	AlphaCC       float64          `json:"alpha_cc"`
	Threshold     float64          `json:"threshold"`
	Replicas      int              `json:"replicas"`
	Makespan      stats.Summary    `json:"makespan_s"`
	MeanQoS       stats.Summary    `json:"mean_slowdown_qos"`
	MeanQoSWait   stats.Summary    `json:"mean_slowdown_qos_wait"`
	TotalWait     stats.Summary    `json:"total_wait_s"`
	SLOViolations stats.Summary    `json:"slo_violations"`
	// Discipline and the priority-class summaries appear only for cells
	// whose points set them, so pre-priority artifacts round-trip
	// byte-identically.
	Discipline  string         `json:"discipline,omitempty"`
	Preemptions *stats.Summary `json:"preemptions,omitempty"`
	HighPriWait *stats.Summary `json:"high_pri_wait_s,omitempty"`
}

// summarizeCells groups point results by cell, preserving first-seen
// order (which is deterministic because expansion is).
func summarizeCells(points []Point, results []PointResult) []CellSummary {
	type acc struct {
		first                                     Point
		makespan, qos, qosWait, totalWait, sloved []float64
		preempts, hiWait                          []float64
		hiJobs                                    int
	}
	order := []string{}
	cells := map[string]*acc{}
	for i, p := range points {
		k := p.cellKey()
		a := cells[k]
		if a == nil {
			a = &acc{first: p}
			cells[k] = a
			order = append(order, k)
		}
		a.makespan = append(a.makespan, results[i].Makespan)
		a.qos = append(a.qos, results[i].MeanQoS)
		a.qosWait = append(a.qosWait, results[i].MeanQoSWait)
		a.totalWait = append(a.totalWait, results[i].TotalWait)
		a.sloved = append(a.sloved, float64(results[i].SLOViolations))
		a.preempts = append(a.preempts, float64(results[i].Preemptions))
		a.hiWait = append(a.hiWait, results[i].HighPriWait)
		a.hiJobs += results[i].HighPriJobs
	}
	out := make([]CellSummary, 0, len(order))
	for _, k := range order {
		a := cells[k]
		c := CellSummary{
			Engine:        a.first.Engine,
			Source:        a.first.Source,
			Policy:        a.first.Policy,
			Topology:      a.first.Topology,
			Machines:      a.first.Machines,
			Jobs:          a.first.Jobs,
			AlphaCC:       a.first.AlphaCC,
			Threshold:     a.first.Threshold,
			Replicas:      len(a.makespan),
			Makespan:      stats.Summarize(a.makespan),
			MeanQoS:       stats.Summarize(a.qos),
			MeanQoSWait:   stats.Summarize(a.qosWait),
			TotalWait:     stats.Summarize(a.totalWait),
			SLOViolations: stats.Summarize(a.sloved),
			Discipline:    a.first.Discipline,
		}
		// The priority summaries exist only for cells that actually saw
		// high-priority jobs: cells of single-class workloads keep the
		// nil (omitted) fields their artifacts were recorded with.
		if a.hiJobs > 0 {
			hw := stats.Summarize(a.hiWait)
			pe := stats.Summarize(a.preempts)
			c.HighPriWait = &hw
			c.Preemptions = &pe
		}
		out = append(out, c)
	}
	return out
}

// Report is the aggregated outcome of one sweep. Elapsed and Workers
// describe the execution, not the results, and stay out of the serialized
// artifact so that worker count and machine speed cannot perturb it.
type Report struct {
	Grid   Grid          `json:"grid"`
	Points []PointResult `json:"points"`
	Cells  []CellSummary `json:"cells"`

	Elapsed time.Duration `json:"-"`
	Workers int           `json:"-"`
}

// ByPolicy returns the lowest-indexed point result with the given policy,
// or nil when the grid never ran it. On a single-cell grid (only the
// policy axis varied) that is the cell's result for the policy; on a
// multi-cell grid it is merely the first matching point, so callers
// comparing policies across cells should walk Points or Cells instead.
//
//lint:ignore deadcode test helper: sweep, experiments and root benchmark tests group results through it
func (r *Report) ByPolicy(pol schedcore.Policy) *PointResult {
	for i := range r.Points {
		if r.Points[i].Policy == pol {
			return &r.Points[i]
		}
	}
	return nil
}

// JSON serializes the report deterministically (indented, stable field
// order, no volatile fields).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CSV renders one row per point with a fixed column set, for spreadsheet
// and pandas consumption.
func (r *Report) CSV() []byte {
	var buf bytes.Buffer
	buf.WriteString("index,engine,source,policy,topology,machines,jobs,alpha_cc,threshold,replica,seed,discipline," +
		"makespan_s,slo_violations,mean_slowdown_qos,mean_slowdown_qos_wait,total_wait_s," +
		"jobs_finished,placements,postponements,preemptions,high_pri_jobs,high_pri_wait_s\n")
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, p := range r.Points {
		fmt.Fprintf(&buf, "%d,%s,%s,%s,%s,%d,%d,%s,%s,%d,%d,%s,%s,%d,%s,%s,%s,%d,%d,%d,%d,%d,%s\n",
			p.Index, p.Engine, p.Source, p.Policy, p.Topology.Key(), p.Point.Machines, p.Point.Jobs,
			f(p.AlphaCC), f(p.Point.Threshold), p.Replica, p.Seed, p.Discipline,
			f(p.Makespan), p.SLOViolations, f(p.MeanQoS), f(p.MeanQoSWait), f(p.TotalWait),
			p.JobsFinished, p.Placements, p.Postponements, p.Preemptions, p.HighPriJobs, f(p.HighPriWait))
	}
	return buf.Bytes()
}

// Render formats the report as an ASCII summary: the per-cell aggregate
// table plus the execution footer (points, workers, wall clock).
func (r *Report) Render() string {
	var rows [][]string
	for _, c := range r.Cells {
		alpha, th := "-", "-"
		if c.AlphaCC >= 0 {
			alpha = strconv.FormatFloat(c.AlphaCC, 'g', 3, 64)
		}
		if c.Threshold >= 0 {
			th = strconv.FormatFloat(c.Threshold, 'g', 3, 64)
		}
		rows = append(rows, []string{
			c.Policy.String(),
			c.Topology.Key(),
			fmt.Sprintf("%d", c.Machines),
			fmt.Sprintf("%d", c.Jobs),
			alpha,
			th,
			fmt.Sprintf("%d", c.Replicas),
			fmt.Sprintf("%.1f±%.1f", c.Makespan.Mean, c.Makespan.Stddev),
			fmt.Sprintf("%.3f", c.MeanQoS.Mean),
			fmt.Sprintf("%.1f", c.TotalWait.Mean),
			fmt.Sprintf("%.1f", c.SLOViolations.Mean),
		})
	}
	out := fmt.Sprintf("Sweep %q — %d points, %d cells (engine %s, source %s)\n",
		r.Grid.Name, len(r.Points), len(r.Cells), r.Grid.Engine, r.Grid.Source) +
		metrics.Table([]string{
			"policy", "topology", "machines", "jobs", "αcc", "thresh", "reps",
			"makespan(s)", "QoS slow", "wait(s)", "SLO-viol",
		}, rows)
	if r.Elapsed > 0 {
		out += fmt.Sprintf("\n%d points on %d workers in %s (%.1f points/s)\n",
			len(r.Points), r.Workers, r.Elapsed.Round(time.Millisecond),
			float64(len(r.Points))/r.Elapsed.Seconds())
	}
	return out
}
