package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile of an ascending sample
// the way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), so the spread printed here is the spread the benchmark driver
// computes. A sample of one has no spread.
func quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	if ld < 2 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// side is one document's samples of one metric on one workload.
type side struct {
	sorted []float64
	median float64
	spread float64 // (q3 − q1) / median
}

func newSide(xs []float64) side {
	s := side{sorted: append([]float64(nil), xs...)}
	sort.Float64s(s.sorted)
	s.median = median(s.sorted)
	if q1, q3 := quartiles(s.sorted); s.median != 0 {
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// verdict judges the change against the base for one metric: "worse"
// when its median is worse by more than the bound, "unresolved" when
// either side's own spread is wider than the bound (the data cannot say)
// unless every run of the change beats every run of the base, "within"
// otherwise.
func verdict(base, change side, def metricDef) string {
	lower := def.Better == "lower"
	worseBy := change.median - base.median // in the metric's unit; positive is worse
	if !lower {
		worseBy = -worseBy
	}
	allBetter := change.sorted[len(change.sorted)-1] < base.sorted[0]
	if !lower {
		allBetter = change.sorted[0] > base.sorted[len(base.sorted)-1]
	}
	switch {
	case allBetter:
		return "within"
	case def.Bound > 0 && max(base.spread, change.spread) > def.Bound:
		return "unresolved"
	case worseBy > def.Bound*math.Abs(base.median):
		return "worse"
	}
	return "within"
}

// samples collects one metric's values over a document's runs.
func samples(doc *perfDoc, workload, metric string) (xs []float64, unit string) {
	for _, run := range doc.Runs {
		w := run.Workloads[workload]
		if w == nil {
			continue
		}
		v, ok := w.EndToEnd[metric]
		if !ok {
			v, ok = w.Extra[metric]
		}
		if ok {
			xs = append(xs, v.Value)
			unit = v.Unit
		}
	}
	return xs, unit
}

// compareDocs prints one row per workload and end-to-end metric: both
// medians, the ratio with its base, the bound and the verdict.
func compareDocs(basePath, changePath string, w io.Writer) error {
	base, err := loadDoc(basePath)
	if err != nil {
		return err
	}
	change, err := loadDoc(changePath)
	if err != nil {
		return err
	}
	defs := append([]metricDef(nil), endToEnd...)
	for _, name := range sortedKeys(extraBounds) {
		defs = append(defs, extraBounds[name])
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median (n, spread)\tchange median (n, spread)\tchange/base\tbound\tverdict")
	rows, worse := 0, 0
	for _, wl := range workloads {
		for _, def := range defs {
			bx, unit := samples(base, wl.Name, def.Name)
			cx, _ := samples(change, wl.Name, def.Name)
			if len(bx) == 0 || len(cx) == 0 {
				continue
			}
			b, c := newSide(bx), newSide(cx)
			ratio := "-"
			if b.median != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g %s", c.median/b.median, b.median, unit)
			}
			v := verdict(b, c, def)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g (%d, %.1f%%)\t%.4g (%d, %.1f%%)\t%s\t%.0f%% %s\t%s\n",
				wl.Name, def.Name, b.median, len(bx), 100*b.spread, c.median, len(cx), 100*c.spread, ratio, 100*def.Bound, def.Better, v)
			rows++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("%s and %s share no workload and metric", basePath, changePath)
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}
