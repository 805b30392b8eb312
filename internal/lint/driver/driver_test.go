package driver_test

import (
	"strings"
	"testing"

	"gputopo/internal/lint/analysis"
	"gputopo/internal/lint/detmap"
	"gputopo/internal/lint/driver"
	"gputopo/internal/lint/load"
	"gputopo/internal/lint/nilness"
)

func runFixture(t *testing.T, analyzers ...*analysis.Analyzer) driver.Result {
	t.Helper()
	pkgs, err := load.Load(".", "./testdata/src/suppresstest")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	res, err := driver.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	return res
}

// TestSuppression covers the //lint:ignore contract end to end:
// justified directives (trailing, standalone, multi-name) silence their
// finding, while missing justifications, unknown names and stale
// directives each fail the run.
func TestSuppression(t *testing.T) {
	res := runFixture(t, detmap.Analyzer, nilness.Analyzer)

	if got := len(res.Suppressed); got != 3 {
		t.Fatalf("want 3 suppressed findings (trailing, standalone, multi-name), got %d: %+v", got, res.Suppressed)
	}
	for _, d := range res.Suppressed {
		if d.Analyzer != "detmap" {
			t.Errorf("suppressed finding from %s, want detmap", d.Analyzer)
		}
		if d.SuppressedBy == "" {
			t.Errorf("suppressed finding at %s lost its justification", d.Pos)
		}
	}

	wantLive := []struct {
		analyzer string
		fragment string
	}{
		{"detmap", "float accumulation"}, // Unjustified's finding stays live
		{"detmap", "float accumulation"}, // UnknownName's finding stays live
		{driver.DirectiveAnalyzer, "malformed directive"},
		{driver.DirectiveAnalyzer, `unknown analyzer "nosuchcheck"`},
		{driver.DirectiveAnalyzer, "suppresses nothing"},
	}
	if got := len(res.Diags); got != len(wantLive) {
		var lines []string
		for _, d := range res.Diags {
			lines = append(lines, d.Pos.String()+" ["+d.Analyzer+"] "+d.Message)
		}
		t.Fatalf("want %d live diagnostics, got %d:\n%s", len(wantLive), got, strings.Join(lines, "\n"))
	}
	for _, w := range wantLive {
		found := false
		for _, d := range res.Diags {
			if d.Analyzer == w.analyzer && strings.Contains(d.Message, w.fragment) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing live diagnostic [%s] containing %q", w.analyzer, w.fragment)
		}
	}
}

// TestStaleSkippedOnPartialRun proves the stale-directive check stays
// quiet when the named analyzer did not run: a detmap-only directive
// cannot be judged stale by a nilness-only invocation.
func TestStaleSkippedOnPartialRun(t *testing.T) {
	res := runFixture(t, nilness.Analyzer)
	for _, d := range res.Diags {
		if strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("stale directive reported on partial run: %s", d.Message)
		}
	}
}

// TestUnselectedAnalyzerDirectiveIsSilent: directive names are checked
// against the registry, not against the analyzers a run selected. A
// nilness-only run must accept the fixture's detmap directives and still
// report the name no analyzer has.
func TestUnselectedAnalyzerDirectiveIsSilent(t *testing.T) {
	res := runFixture(t, nilness.Analyzer)
	var got []string
	for _, d := range res.Diags {
		if d.Analyzer == driver.DirectiveAnalyzer {
			got = append(got, d.Message)
		}
	}
	want := []string{
		"malformed directive: want //lint:ignore analyzer[,analyzer] justification",
		`//lint:ignore names unknown analyzer "nosuchcheck"`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("directive findings on a nilness-only run:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestFormat checks the rendered shape the CI log shows.
func TestFormat(t *testing.T) {
	res := runFixture(t, detmap.Analyzer, nilness.Analyzer)

	var quiet strings.Builder
	driver.Format(&quiet, res, false)
	out := quiet.String()
	if !strings.Contains(out, "[detmap]") || !strings.Contains(out, "[lintignore]") {
		t.Errorf("Format output missing analyzer tags:\n%s", out)
	}
	if !strings.Contains(out, "3 finding(s) suppressed by //lint:ignore") {
		t.Errorf("Format output missing suppression accounting:\n%s", out)
	}

	var verbose strings.Builder
	driver.Format(&verbose, res, true)
	if !strings.Contains(verbose.String(), "suppressed (order-insensitive debug sum, callers never compare bytes)") {
		t.Errorf("verbose Format output missing justification:\n%s", verbose.String())
	}
}
