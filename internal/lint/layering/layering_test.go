package layering_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gputopo/internal/lint/analysistest"
	"gputopo/internal/lint/layering"
)

const fixtureRoot = "gputopo/internal/lint/layering/testdata/src/layertest/"

func withFixtureConfig(t *testing.T) {
	t.Helper()
	oldRanks, oldPrefix, oldIntra, oldStd :=
		layering.Ranks, layering.PrefixRanks, layering.IntraPrefixes, layering.ForbiddenStd
	t.Cleanup(func() {
		layering.Ranks, layering.PrefixRanks, layering.IntraPrefixes, layering.ForbiddenStd =
			oldRanks, oldPrefix, oldIntra, oldStd
	})
	layering.Ranks = map[string]layering.Layer{
		fixtureRoot + "low":  {Rank: 100, Name: "fixture-low"},
		fixtureRoot + "high": {Rank: 900, Name: "fixture-high"},
		fixtureRoot + "pure": {Rank: 100, Name: "fixture-pure"},
	}
	layering.PrefixRanks = nil
	layering.IntraPrefixes = nil
	layering.ForbiddenStd = map[string][]string{
		fixtureRoot + "pure": {"os", "net/http"},
	}
}

func TestLayeringFixture(t *testing.T) {
	withFixtureConfig(t)
	analysistest.Run(t, layering.Analyzer,
		"./testdata/src/layertest/low",
		"./testdata/src/layertest/high",
		"./testdata/src/layertest/unknown",
		"./testdata/src/layertest/pure",
	)
}

// TestRepoDAGIsComplete pins the real configuration: every package the
// table names must keep a strictly-lower-rank import set, which the
// repo-wide run in cmd/topolint's tests and CI enforces. Here we check
// the table itself stays self-consistent (no package both in Ranks and
// swallowed by a PrefixRank with a different layer).
func TestRepoDAGIsComplete(t *testing.T) {
	for path, l := range layering.Ranks {
		if l.Rank <= 0 {
			t.Errorf("%s has non-positive rank %d", path, l.Rank)
		}
		if l.Name == "" {
			t.Errorf("%s has no layer name", path)
		}
	}
}

// TestRanksNameExistingPackages keeps the table free of dead rows: every
// Ranks key must name a directory of the module that holds at least one
// non-test .go file, so a package that moves or becomes test-only cannot
// leave its row behind.
func TestRanksNameExistingPackages(t *testing.T) {
	root := "../../.." // this package sits at internal/lint/layering
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	for path := range layering.Ranks {
		rel, ok := strings.CutPrefix(path, layering.Module)
		if !ok {
			t.Errorf("%s is outside module %s", path, layering.Module)
			continue
		}
		entries, err := os.ReadDir(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		found := false
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s names a directory with no non-test .go file", path)
		}
	}
}
