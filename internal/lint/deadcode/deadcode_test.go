package deadcode_test

import (
	"testing"

	"gputopo/internal/lint/analysis"
	"gputopo/internal/lint/analysistest"
	"gputopo/internal/lint/deadcode"
	"gputopo/internal/lint/driver"
	"gputopo/internal/lint/load"
)

var fixture = []string{"./testdata/src/deadcodetest", "./testdata/src/deadcodetest/user"}

func TestDeadcodeFixture(t *testing.T) {
	analysistest.Run(t, deadcode.Analyzer, fixture...)
}

// TestJustifiedSuppression: through the driver, Kept's directive silences
// its finding and every other dead function stays live.
func TestJustifiedSuppression(t *testing.T) {
	pkgs, err := load.Load(".", fixture...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Run(pkgs, []*analysis.Analyzer{deadcode.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) != 1 || res.Suppressed[0].SuppressedBy != "the fixture's justified suppression" {
		t.Errorf("suppressed = %+v, want Kept's finding alone", res.Suppressed)
	}
	if len(res.Diags) != 4 {
		t.Errorf("%d live findings, want 4 (Unreferenced, OnlyTested, Recursive, square.Perimeter): %+v",
			len(res.Diags), res.Diags)
	}
}
