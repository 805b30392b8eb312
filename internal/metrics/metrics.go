// Package metrics computes the evaluation metrics of §5 — per-job
// slowdown relative to the best-performing configuration (with and without
// queue waiting time), SLO violations, cumulative execution time — and
// renders the paper's tables and figures as ASCII so every experiment is
// regenerable from the command line.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gputopo/internal/simulator"
)

// SortedSlowdowns returns the per-job slowdowns ordered from worst to best
// — the x-axis convention of Figures 8e/f, 10 and 11. When includeWait is
// true the slowdown includes scheduler queue time (the "JOB'S QOS +
// WAITING TIME" panels).
func SortedSlowdowns(res *simulator.Result, includeWait bool) []float64 {
	out := make([]float64, len(res.Jobs))
	for i, jr := range res.Jobs {
		if includeWait {
			out[i] = jr.SlowdownQoSWait
		} else {
			out[i] = jr.SlowdownQoS
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Speedup returns how much faster b's cumulative execution time is than
// a's (a.Makespan / b.Makespan); §5.2.2 reports TOPO-AWARE-P affording
// ≈1.30x over BF this way.
func Speedup(a, b *simulator.Result) float64 {
	if b.Makespan == 0 {
		return math.Inf(1)
	}
	return a.Makespan / b.Makespan
}

// Table renders rows as a fixed-width ASCII table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// Series is one named line of a chart.
type Series struct {
	Name   string
	Points []Point
}

// Point is an (x, y) chart sample.
type Point struct{ X, Y float64 }

// LineChart renders series as an ASCII chart of the given size. Each
// series is drawn with its own rune; later series overwrite earlier ones
// on collisions.
func LineChart(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if math.IsInf(minX, 1) {
		return title + "\n(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	marks := []rune{'*', '+', 'o', 'x', '#', '@'}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			c := int((p.X - minX) / (maxX - minX) * float64(width-1))
			r := height - 1 - int((p.Y-minY)/(maxY-minY)*float64(height-1))
			if c >= 0 && c < width && r >= 0 && r < height {
				grid[r][c] = mark
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(title + "\n")
	for r, row := range grid {
		yVal := maxY - (maxY-minY)*float64(r)/float64(height-1)
		fmt.Fprintf(&sb, "%9.3f |%s|\n", yVal, string(row))
	}
	fmt.Fprintf(&sb, "%9s  %-*.3f%*.3f\n", "", width/2, minX, width-width/2, maxX)
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[si%len(marks)], s.Name))
	}
	sb.WriteString("          " + strings.Join(legend, "  ") + "\n")
	return sb.String()
}

// Timeline renders the GPU allocation timeline of a run (Figure 8a–d):
// one row per GPU, one column per time bucket, letters identifying jobs.
func Timeline(res *simulator.Result, numGPUs, width int) string {
	if width < 20 {
		width = 20
	}
	end := res.Makespan
	if end == 0 {
		end = 1
	}
	rows := make([][]rune, numGPUs)
	for g := range rows {
		rows[g] = []rune(strings.Repeat(".", width))
	}
	// Stable letter per job ordered by first placement.
	intervals := append([]simulator.Interval(nil), res.Timeline...)
	sort.Slice(intervals, func(i, j int) bool {
		if intervals[i].Start != intervals[j].Start {
			return intervals[i].Start < intervals[j].Start
		}
		return intervals[i].JobID < intervals[j].JobID
	})
	letters := map[string]rune{}
	next := 0
	letterOf := func(id string) rune {
		if r, ok := letters[id]; ok {
			return r
		}
		r := rune('A' + next%26)
		letters[id] = r
		next++
		return r
	}
	for _, iv := range intervals {
		c0 := int(iv.Start / end * float64(width-1))
		c1 := int(iv.Finish / end * float64(width-1))
		mark := letterOf(iv.JobID)
		for _, g := range iv.GPUs {
			if g < 0 || g >= numGPUs {
				continue
			}
			for c := c0; c <= c1 && c < width; c++ {
				rows[g][c] = mark
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s] GPU allocation timeline (0 .. %.1fs)\n", res.Policy, end)
	for g := numGPUs - 1; g >= 0; g-- {
		fmt.Fprintf(&sb, "GPU%-2d |%s|\n", g, string(rows[g]))
	}
	var legend []string
	type entry struct {
		id string
		r  rune
	}
	var es []entry
	for id, r := range letters {
		es = append(es, entry{id, r})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].r < es[j].r })
	for _, e := range es {
		legend = append(legend, fmt.Sprintf("%c=%s", e.r, e.id))
	}
	sb.WriteString("      " + strings.Join(legend, " ") + "\n")
	return sb.String()
}

// CompareRuns renders the per-policy summary table of a multi-policy
// experiment: cumulative execution time, speedup of the best policy over
// each, SLO violations, mean slowdowns and waiting (§5.2.2). Every cell is
// a function of the simulated schedule alone, so the table is reproducible
// byte for byte; decision cost is wall clock and belongs to §5.5.3's own
// table (topobench -fig overhead).
func CompareRuns(results []*simulator.Result) string {
	best := results[0]
	for _, r := range results {
		if r.Makespan < best.Makespan {
			best = r
		}
	}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.Policy.String(),
			fmt.Sprintf("%.1f", r.Makespan),
			fmt.Sprintf("%.2fx", Speedup(r, best)),
			fmt.Sprintf("%d", r.SLOViolations()),
			fmt.Sprintf("%.3f", r.MeanSlowdownQoS()),
			fmt.Sprintf("%.3f", r.MeanSlowdownQoSWait()),
			fmt.Sprintf("%.1f", r.TotalWait()),
		})
	}
	return Table(
		[]string{"policy", "cumulative(s)", "best-speedup", "SLO-viol", "mean-QoS-slow", "mean-QoS+W-slow", "total-wait(s)"},
		rows,
	)
}

// SlowdownChart renders the sorted worst-to-best slowdown comparison of
// Figures 8e/f, 10 and 11 for several policies.
func SlowdownChart(title string, results []*simulator.Result, includeWait bool, width, height int) string {
	var series []Series
	for _, r := range results {
		sl := SortedSlowdowns(r, includeWait)
		pts := make([]Point, len(sl))
		for i, v := range sl {
			pts[i] = Point{X: float64(i), Y: v}
		}
		series = append(series, Series{Name: r.Policy.String(), Points: pts})
	}
	return LineChart(title, series, width, height)
}
