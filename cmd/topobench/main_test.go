package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gputopo/internal/experiments"
	"gputopo/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/<key>.golden from the current output")

// TestFigureGoldens holds every figure to its recorded bytes at seed 42.
// The goldens were recorded while the hand-rolled serial loops of every
// grid-backed figure still existed and agreed with the sweep engine job
// for job, so a diff here is a behaviour change: re-record with
// `go test ./cmd/topobench -run TestFigureGoldens -update` only when the
// change is meant, and say so in the commit.
func TestFigureGoldens(t *testing.T) {
	for _, f := range experiments.Figures() {
		t.Run(f.Key, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(&got, f.Key, 42); err != nil {
				t.Fatal(err)
			}
			if f.Key == "overhead" {
				// Wall-clock cells: the shape is all that can be pinned.
				lines := strings.Split(got.String(), "\n")
				want := []string{"§5.5.3", "policy ", "------", "BF ", "FCFS ", "TOPO-AWARE ", "TOPO-AWARE-P ", "topo/greedy mean-decision ratio: "}
				for i, prefix := range want {
					if i >= len(lines) || !strings.HasPrefix(lines[i], prefix) {
						t.Fatalf("line %d does not start with %q:\n%s", i+1, prefix, got.String())
					}
				}
				return
			}
			path := filepath.Join("testdata", f.Key+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("-fig %s differs from %s\n--- got\n%s--- want\n%s", f.Key, path, got.String(), want)
			}
		})
	}
}

// TestUnknownFigure checks that the three places a user reads the key list
// — the unknown-key error, the -fig help (both keys()) and the package
// comment — are the table's.
func TestUnknownFigure(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	unknown := run(new(bytes.Buffer), "7", 42)
	if unknown == nil {
		t.Fatal("-fig 7 did not fail")
	}
	var doc strings.Builder
	for _, f := range experiments.Figures() {
		if !strings.Contains(unknown.Error(), f.Key+",") {
			t.Errorf("error %q does not name -fig %s", unknown, f.Key)
		}
		fmt.Fprintf(&doc, "//\ttopobench -fig %-10s %-10s (%s)\n", f.Key, f.Ref, f.Title)
	}
	fmt.Fprintf(&doc, "//\ttopobench -fig %-10s everything above\n", "all")
	if !strings.Contains(string(src), "//\n"+doc.String()+"package main") {
		t.Errorf("main.go's package comment does not list the table; want\n%s", doc.String())
	}
}

// TestFiguresUseRegisteredGrids checks the table against the grid registry
// and docs/reproducing-the-paper.md's figure → grid map against both.
func TestFiguresUseRegisteredGrids(t *testing.T) {
	grids := sweep.GridNames()
	doc, err := os.ReadFile("../../docs/reproducing-the-paper.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(string(doc), "\n")
	for _, f := range experiments.Figures() {
		for _, g := range f.Grids {
			if !slices.Contains(grids, g) {
				t.Errorf("-fig %s names grid %q; registered: %v", f.Key, g, grids)
			}
			// A map row: | artifact | what it shows | `grid` … | `-fig key` | command |
			grid, fig := "| `"+g+"`", "| `-fig "+f.Key+"` |"
			if !slices.ContainsFunc(rows, func(r string) bool { return strings.Contains(r, grid) && strings.Contains(r, fig) }) {
				t.Errorf("the docs map has no row pairing grid %q with -fig %s", g, f.Key)
			}
		}
	}
	for _, m := range regexp.MustCompile("(?m)^\\|[^|]*\\|[^|]*\\| `([a-z0-9]+)`").FindAllStringSubmatch(string(doc), -1) {
		if !slices.Contains(grids, m[1]) {
			t.Errorf("the docs map names grid %q; registered: %v", m[1], grids)
		}
	}
}
