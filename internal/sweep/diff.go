package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"gputopo/internal/stats"
)

// The per-cell metrics the differ compares, in report order. Every base
// metric is compared as its replica mean plus two distribution shapes —
// stddev (run-to-run spread) and P95 (tail) — so a change that keeps the
// mean but fattens the tail still fails the gate. Lower is better for all
// of them: shrinking variance or tail is an improvement, growing them a
// regression.
var diffMetrics = buildDiffMetrics()

type diffMetric struct {
	name string
	get  func(CellSummary) float64
}

func buildDiffMetrics() []diffMetric {
	bases := []struct {
		name string
		get  func(CellSummary) stats.Summary
	}{
		{"makespan_s", func(c CellSummary) stats.Summary { return c.Makespan }},
		{"mean_slowdown_qos", func(c CellSummary) stats.Summary { return c.MeanQoS }},
		{"mean_slowdown_qos_wait", func(c CellSummary) stats.Summary { return c.MeanQoSWait }},
		{"total_wait_s", func(c CellSummary) stats.Summary { return c.TotalWait }},
		{"slo_violations", func(c CellSummary) stats.Summary { return c.SLOViolations }},
		// Priority cells only: a nil summary compares as NaN, which
		// compareMetric treats as equal against another NaN (both cells
		// priority-free) and as a regression against a real value (the
		// metric vanished or appeared — either way the artifacts disagree
		// about what was measured).
		{"high_pri_wait_s", func(c CellSummary) stats.Summary {
			if c.HighPriWait == nil {
				nan := math.NaN()
				return stats.Summary{Mean: nan, Stddev: nan, P95: nan}
			}
			return *c.HighPriWait
		}},
	}
	var ms []diffMetric
	for _, b := range bases {
		get := b.get
		ms = append(ms,
			diffMetric{name: b.name, get: func(c CellSummary) float64 { return get(c).Mean }},
			diffMetric{name: b.name + ".stddev", get: func(c CellSummary) float64 { return get(c).Stddev }},
			diffMetric{name: b.name + ".p95", get: func(c CellSummary) float64 { return get(c).P95 }},
		)
	}
	return ms
}

// DeltaStatus classifies one cell-metric comparison.
type DeltaStatus int

// Comparison outcomes. Every metric is lower-is-better and compared
// exactly — sweeps are deterministic — so any increase is a regression and
// any decrease an improvement.
const (
	DeltaEqual DeltaStatus = iota
	DeltaImprovement
	DeltaRegression
)

// String names the status for tables and logs.
func (s DeltaStatus) String() string {
	switch s {
	case DeltaEqual:
		return "ok"
	case DeltaImprovement:
		return "improved"
	case DeltaRegression:
		return "REGRESSION"
	default:
		return fmt.Sprintf("DeltaStatus(%d)", int(s))
	}
}

// MetricDelta is one metric of one cell compared across two reports.
type MetricDelta struct {
	Cell   string
	Metric string
	Old    float64
	New    float64
	// Rel is (new-old)/|old|; ±Inf when old is zero and new is not, and
	// NaN when either side is NaN.
	Rel    float64
	Status DeltaStatus
}

// DiffResult is the deterministic join of two sweep reports by cell key.
type DiffResult struct {
	// OldName and NewName label the sides (grid names or file paths).
	OldName, NewName string
	// MissingCells are cell keys present in the old report but absent
	// from the new one — lost coverage, counted as regressions.
	MissingCells []string
	// AddedCells are cell keys only the new report has (informational).
	AddedCells []string
	// Deltas holds every compared cell-metric pair, in old-report cell
	// order then metric order.
	Deltas []MetricDelta
	// Regressions, Improvements and Unchanged count Deltas by status;
	// Regressions also counts MissingCells.
	Regressions  int
	Improvements int
	Unchanged    int
}

// HasRegressions reports whether any metric grew or any cell disappeared.
func (d *DiffResult) HasRegressions() bool { return d.Regressions > 0 }

// compareMetric classifies new against old exactly. NaN on both sides is
// equal (the cell is consistently degenerate); NaN on one side is a
// regression — a metric silently becoming undefined (or recovering, which
// still demands a baseline refresh) must not pass CI.
func compareMetric(old, new float64) (rel float64, status DeltaStatus) {
	switch oldNaN, newNaN := math.IsNaN(old), math.IsNaN(new); {
	case oldNaN && newNaN, old == new:
		return 0, DeltaEqual
	case oldNaN || newNaN:
		return math.NaN(), DeltaRegression
	}
	rel = (new - old) / math.Abs(old) // ±Inf from a zero baseline
	if new > old {
		return rel, DeltaRegression
	}
	return rel, DeltaImprovement
}

// Diff joins two reports' cells by key and classifies every metric delta.
// The result is deterministic: cells are visited in the old report's
// order, added cells sorted by key.
func Diff(oldRep, newRep *Report) *DiffResult {
	d := &DiffResult{OldName: oldRep.Grid.Name, NewName: newRep.Grid.Name}
	newCells := make(map[string]CellSummary, len(newRep.Cells))
	for _, c := range newRep.Cells {
		newCells[c.Key()] = c
	}
	seen := make(map[string]bool, len(oldRep.Cells))
	for _, oc := range oldRep.Cells {
		key := oc.Key()
		seen[key] = true
		nc, ok := newCells[key]
		if !ok {
			d.MissingCells = append(d.MissingCells, key)
			d.Regressions++
			continue
		}
		for _, m := range diffMetrics {
			rel, status := compareMetric(m.get(oc), m.get(nc))
			d.Deltas = append(d.Deltas, MetricDelta{
				Cell:   key,
				Metric: m.name,
				Old:    m.get(oc),
				New:    m.get(nc),
				Rel:    rel,
				Status: status,
			})
			switch status {
			case DeltaRegression:
				d.Regressions++
			case DeltaImprovement:
				d.Improvements++
			default:
				d.Unchanged++
			}
		}
	}
	for _, c := range newRep.Cells {
		if !seen[c.Key()] {
			d.AddedCells = append(d.AddedCells, c.Key())
		}
	}
	sort.Strings(d.AddedCells)
	return d
}

// Markdown renders the diff as a GitHub-flavored markdown report: a
// verdict line, the changed cells as a delta table (unchanged metrics are
// summarized, not listed), and any missing/added cells. The output is
// deterministic, so it can be committed or posted by CI verbatim.
func (d *DiffResult) Markdown() string {
	var sb strings.Builder
	verdict := "✅ no regressions"
	if d.HasRegressions() {
		verdict = fmt.Sprintf("❌ %d regression(s)", d.Regressions)
	}
	fmt.Fprintf(&sb, "## Sweep diff: `%s` → `%s`\n\n", d.OldName, d.NewName)
	fmt.Fprintf(&sb, "%s — %d metric(s) compared, %d unchanged, %d improved, %d missing cell(s), %d added cell(s)\n",
		verdict, len(d.Deltas), d.Unchanged, d.Improvements, len(d.MissingCells), len(d.AddedCells))
	var changed []MetricDelta
	for _, md := range d.Deltas {
		if md.Status != DeltaEqual {
			changed = append(changed, md)
		}
	}
	if len(changed) > 0 {
		sb.WriteString("\n| cell | metric | old | new | Δ | status |\n")
		sb.WriteString("|---|---|---:|---:|---:|---|\n")
		for _, md := range changed {
			fmt.Fprintf(&sb, "| %s | %s | %.6g | %.6g | %+.2f%% | %s |\n",
				md.Cell, md.Metric, md.Old, md.New, 100*md.Rel, md.Status)
		}
	}
	if len(d.MissingCells) > 0 {
		sb.WriteString("\nCells missing from the new report:\n")
		for _, k := range d.MissingCells {
			fmt.Fprintf(&sb, "- ❌ `%s`\n", k)
		}
	}
	if len(d.AddedCells) > 0 {
		sb.WriteString("\nCells only in the new report:\n")
		for _, k := range d.AddedCells {
			fmt.Fprintf(&sb, "- ➕ `%s`\n", k)
		}
	}
	return sb.String()
}

// LoadReport reads a JSON sweep artifact (as written by toposweep -out or
// Report.JSON) back into a Report for diffing.
func LoadReport(data []byte, name string) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("sweep: parsing report %s: %w", name, err)
	}
	if len(rep.Cells) == 0 {
		return nil, fmt.Errorf("sweep: report %s has no cells — not a sweep artifact?", name)
	}
	if rep.Grid.Name == "" {
		rep.Grid.Name = name
	}
	return &rep, nil
}
