package sweep

import (
	"bytes"
	"os"
	"regexp"
	"testing"

	"gputopo/internal/schedcore"
)

func TestParseTopologyArgDomains(t *testing.T) {
	ts, err := ParseTopologyArg("minsky:8/domains[hash:4]")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Builder != "minsky" || ts.Machines != 8 || ts.Domains != "hash:4" {
		t.Fatalf("parsed %+v", ts)
	}
	if key := ts.Key(); key != "minsky:8/domains[hash:4]" {
		t.Fatalf("Key() = %q", key)
	}
	if _, err := ParseTopologyArg("minsky/domains[]"); err == nil {
		t.Fatal("empty domains[] accepted")
	}
	if _, err := ParseTopologyArg("minsky/domains[rack:2]"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	ts, err = ParseTopologyArg("mix[minsky:2+dgx1:2]/domains[kind]")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Mix) != 2 || ts.Domains != "kind" {
		t.Fatalf("parsed %+v", ts)
	}
}

func TestPartitionDomainsSpecs(t *testing.T) {
	// Homogeneous hash split: 4 identical sub-specs sharing one cache key.
	ts := TopologySpec{Builder: "minsky", Machines: 8, Domains: "hash:4"}
	_, subs, groups, err := ts.PartitionDomains(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 4 {
		t.Fatalf("%d domains, want 4", len(subs))
	}
	for d, sub := range subs {
		if sub.Key() != "minsky:2" {
			t.Fatalf("domain %d spec %q, want minsky:2", d, sub.Key())
		}
		if len(groups[d]) != 2 {
			t.Fatalf("domain %d owns %v", d, groups[d])
		}
	}
	// Heterogeneous kind split: one domain per machine generation, runs
	// recompressed.
	ts = TopologySpec{Mix: []MixEntry{{Kind: "minsky", Count: 2}, {Kind: "dgx1", Count: 1}}, Domains: "kind"}
	_, subs, groups, err = ts.PartitionDomains(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0].Key() != "mix[minsky:2]" || subs[1].Key() != "mix[dgx1:1]" {
		t.Fatalf("kind split: %+v", subs)
	}
	if len(groups[0]) != 2 || groups[1][0] != 2 {
		t.Fatalf("kind groups: %v", groups)
	}
	// A hash split of a mix interleaves generations; runs recompress
	// per domain.
	ts = TopologySpec{Mix: []MixEntry{{Kind: "minsky", Count: 2}, {Kind: "dgx1", Count: 2}}, Domains: "hash:2"}
	_, subs, _, err = ts.PartitionDomains(0)
	if err != nil {
		t.Fatal(err)
	}
	if subs[0].Key() != "mix[minsky:1+dgx1:1]" || subs[1].Key() != "mix[minsky:1+dgx1:1]" {
		t.Fatalf("hash-split mix: %q, %q", subs[0].Key(), subs[1].Key())
	}
}

func TestGridDomainsValidation(t *testing.T) {
	g := testGrid()
	g.Domains = []string{}
	if err := g.Validate(); err == nil {
		t.Fatal("empty domains axis accepted")
	}
	g.Domains = []string{"warp:3"}
	if err := g.Validate(); err == nil {
		t.Fatal("bad domains value accepted")
	}
	g.Domains = []string{"", "hash:2"}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid domains axis rejected: %v", err)
	}
	// A spec-pinned split conflicts with the axis.
	g.Topologies = []TopologySpec{{Builder: "minsky", Domains: "hash:2"}}
	if err := g.Validate(); err == nil {
		t.Fatal("pinned domains + domains axis accepted")
	}
	g.Domains = nil
	if err := g.Validate(); err != nil {
		t.Fatalf("pinned domains rejected: %v", err)
	}
	// Sharding needs the sim engine on generated workloads.
	g.Source = SourceTable1
	if err := g.Validate(); err == nil {
		t.Fatal("sharded Table 1 grid accepted")
	}
	g.Source = SourceGenerated
	g.Engine = EngineProto
	if err := g.Validate(); err == nil {
		t.Fatal("sharded proto grid accepted")
	}
}

// stripOneDomainMarkers removes every trace of a domains[hash:1] axis
// from a serialized report, so a 1-domain run can be compared byte for
// byte against an unsharded artifact: the grid's axis entry, the
// per-spec domains field, and the cell-key/CSV marker.
var (
	gridDomainsRe = regexp.MustCompile(`,\n\s*"domains": \[\n\s*"hash:1"\n\s*\]`)
	specDomainsRe = regexp.MustCompile(`,\n\s*"domains": "hash:1"`)
)

func stripOneDomainMarkers(b []byte) []byte {
	b = gridDomainsRe.ReplaceAll(b, nil)
	b = specDomainsRe.ReplaceAll(b, nil)
	return bytes.ReplaceAll(b, []byte("/domains[hash:1]"), nil)
}

// TestShardedOneDomainMatchesGoldens is the sharded counterpart of
// TestWakeIndexEquivalence: scheduling through the domain router, the
// sharded simulator and the merge path with a single domain must
// reproduce the committed smoke/hetero/priority goldens byte for byte —
// same substrate, same seed, identity GPU map. The goldens are the ones
// TestSweepGoldens holds the unsharded engine to, so this pins the
// sharded engine to the exact artifacts every previous release produced.
func TestShardedOneDomainMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full grids")
	}
	for _, name := range []string{"smoke", "hetero", "priority"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			golden, err := os.ReadFile("testdata/golden_" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			g, err := Named(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			g.Domains = []string{"hash:1"}
			rep, err := Run(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			js, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(js, []byte(`"domains": "hash:1"`)) {
				t.Fatal("sharded run did not record the domain split — the equivalence is vacuous")
			}
			got := stripOneDomainMarkers(js)
			if !bytes.Equal(got, golden) {
				t.Fatalf("1-domain %s run differs from golden: %s", name, firstDiff(got, golden))
			}
		})
	}
}

// TestShardedDeterminismAcrossWorkerCounts pins the merge contract on a
// genuinely multi-domain grid: 1 worker and 8 workers must serialize to
// identical bytes, both for the sweep pool and the per-domain workers
// underneath RunSharded.
func TestShardedDeterminismAcrossWorkerCounts(t *testing.T) {
	g := Grid{
		Name:           "shard-det",
		Policies:       []schedcore.Policy{schedcore.TopoAwareP},
		Topologies:     []TopologySpec{{Builder: "minsky"}},
		Machines:       []int{6},
		Jobs:           []int{40},
		Domains:        []string{"hash:3"},
		Replicas:       2,
		BaseSeed:       7,
		RatePerMachine: 2,
	}
	rep1, err := Run(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep8, err := Run(g, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	js1, _ := rep1.JSON()
	js8, _ := rep8.JSON()
	if !bytes.Equal(js1, js8) {
		t.Fatal("sharded sweep artifacts differ across worker counts")
	}
	if !bytes.Equal(rep1.CSV(), rep8.CSV()) {
		t.Fatal("sharded CSV artifacts differ across worker counts")
	}
	for _, p := range rep1.Points {
		if p.JobsFinished != p.Point.Jobs {
			t.Fatalf("point %d finished %d of %d jobs", p.Index, p.JobsFinished, p.Point.Jobs)
		}
	}
}
