package profile

import (
	"sort"
	"testing"

	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/topology"
)

func TestGenerateCoversAllClasses(t *testing.T) {
	s := Generate(topology.Power8Minsky(), 4)
	// 3 models × 4 batch classes × 4 GPU counts.
	if s.Len() != 48 {
		t.Fatalf("entries = %d, want 48", s.Len())
	}
	for m := perfmodel.NN(0); m < perfmodel.NumNN; m++ {
		for c := jobgraph.BatchTiny; c <= jobgraph.BatchBig; c++ {
			for g := 1; g <= 4; g++ {
				k := Key{Model: m, Class: c, GPUs: g}
				e, ok := s.Lookup(k)
				if !ok {
					t.Fatalf("missing entry %+v", k)
				}
				if e.Sensitivity <= 0 || e.Pressure <= 0 {
					t.Fatalf("entry %+v sensitivity %v pressure %v", k, e.Sensitivity, e.Pressure)
				}
			}
		}
	}
}

func TestLookupFallbackNearestClass(t *testing.T) {
	s := NewStore()
	s.Add(Entry{
		Key:         Key{Model: perfmodel.AlexNet, Class: jobgraph.BatchTiny, GPUs: 2},
		Sensitivity: 0.5, Pressure: 0.3,
	})
	// Unknown class falls back to the nearest known one.
	e, ok := s.Lookup(Key{Model: perfmodel.AlexNet, Class: jobgraph.BatchBig, GPUs: 2})
	if !ok {
		t.Fatal("fallback lookup failed")
	}
	if e.Sensitivity != 0.5 {
		t.Fatalf("fallback entry = %+v", e)
	}
	if e.Key.Class != jobgraph.BatchBig {
		t.Fatal("fallback entry should be rekeyed to the query")
	}
	// Different model or mode: no fallback.
	if _, ok := s.Lookup(Key{Model: perfmodel.GoogLeNet, Class: jobgraph.BatchTiny, GPUs: 2}); ok {
		t.Fatal("cross-model fallback should not happen")
	}
	if _, ok := s.Lookup(Key{Model: perfmodel.AlexNet, Class: jobgraph.BatchBig, GPUs: 2, Mode: perfmodel.ModelParallel}); ok {
		t.Fatal("cross-mode fallback should not happen")
	}
}

// Entries returns all entries sorted by key, for the tests that walk a
// store.
func (s *Store) Entries() []Entry {
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.GPUs != b.GPUs {
			return a.GPUs < b.GPUs
		}
		return a.Mode < b.Mode
	})
	return out
}

func TestEntriesSorted(t *testing.T) {
	s := Generate(topology.Power8Minsky(), 3)
	es := s.Entries()
	for i := 1; i < len(es); i++ {
		a, b := es[i-1].Key, es[i].Key
		if a.Model > b.Model ||
			(a.Model == b.Model && a.Class > b.Class) ||
			(a.Model == b.Model && a.Class == b.Class && a.GPUs > b.GPUs) {
			t.Fatalf("entries unsorted at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestKeyOf(t *testing.T) {
	tr := perfmodel.Traits{Model: perfmodel.CaffeRef, Class: jobgraph.BatchSmall, GPUs: 3, Mode: perfmodel.ModelParallel}
	k := KeyOf(tr)
	if k.Model != tr.Model || k.Class != tr.Class || k.GPUs != tr.GPUs || k.Mode != tr.Mode {
		t.Fatalf("KeyOf = %+v", k)
	}
}

func TestGoogLeNetProfilesLessSensitive(t *testing.T) {
	s := Generate(topology.Power8Minsky(), 4)
	alex, _ := s.Lookup(Key{Model: perfmodel.AlexNet, Class: jobgraph.BatchTiny, GPUs: 2})
	goog, _ := s.Lookup(Key{Model: perfmodel.GoogLeNet, Class: jobgraph.BatchTiny, GPUs: 2})
	if goog.Sensitivity >= alex.Sensitivity {
		t.Fatal("GoogLeNet should be less sensitive than AlexNet")
	}
	if goog.Pressure >= alex.Pressure {
		t.Fatal("GoogLeNet should cause less pressure than AlexNet")
	}
}

// TestLookupFallbackTieIsLowerClass: with classes 0 and 2 known and 1
// asked, both are one step away. The answer once followed Go's map
// iteration order; run under -count=50 to see that it no longer does.
func TestLookupFallbackTieIsLowerClass(t *testing.T) {
	for i := 0; i < 20; i++ {
		s := NewStore()
		s.Add(Entry{Key: Key{Model: perfmodel.AlexNet, Class: jobgraph.BatchMedium, GPUs: 2}, Sensitivity: 0.2, Pressure: 0.2})
		s.Add(Entry{Key: Key{Model: perfmodel.AlexNet, Class: jobgraph.BatchTiny, GPUs: 2}, Sensitivity: 0.9, Pressure: 0.9})
		e, ok := s.Lookup(Key{Model: perfmodel.AlexNet, Class: jobgraph.BatchSmall, GPUs: 2})
		if !ok || e.Sensitivity != 0.9 {
			t.Fatalf("store %d: tie resolved to %+v (ok=%v), want the tiny-class entry", i, e, ok)
		}
	}
}

// TestInterferenceParamsMatchLookup holds Sensitivity and Pressure — the
// dense table, then the map, then the performance model — to what Lookup
// plus the model fallback answer, for keys inside the dense range, beyond
// it, absent with a neighbour class, and wholly unknown.
func TestInterferenceParamsMatchLookup(t *testing.T) {
	// Every generated class but one, so its neighbours answer for it, and
	// one entry overwritten, so a replacement is what the dense table holds.
	s := NewStore()
	for _, e := range Generate(topology.Cluster(6, topology.KindMinsky), 20).Entries() {
		if e.Key != (Key{Model: perfmodel.CaffeRef, Class: jobgraph.BatchSmall, GPUs: 2}) {
			s.Add(e)
		}
	}
	s.Add(Entry{Key: Key{Model: perfmodel.GoogLeNet, Class: jobgraph.BatchBig, GPUs: 3}, Sensitivity: 0.123, Pressure: 0.456})

	for name, st := range map[string]*Store{"built": s, "empty": NewStore()} {
		for m := perfmodel.NN(0); m < perfmodel.NumNN; m++ {
			for c := jobgraph.BatchTiny; c <= jobgraph.BatchBig; c++ {
				for g := 0; g <= 22; g++ {
					for _, mode := range []perfmodel.Parallelism{perfmodel.DataParallel, perfmodel.ModelParallel} {
						tr := perfmodel.Traits{Model: m, Class: c, GPUs: g, Mode: mode}
						wantS, wantP := perfmodel.Sensitivity(tr), perfmodel.Pressure(tr)
						if e, ok := st.Lookup(KeyOf(tr)); ok {
							wantS, wantP = e.Sensitivity, e.Pressure
						}
						if gotS, gotP := st.Sensitivity(tr), st.Pressure(tr); gotS != wantS || gotP != wantP {
							t.Fatalf("%s store, %+v: got (%v, %v), Lookup gives (%v, %v)", name, tr, gotS, gotP, wantS, wantP)
						}
					}
				}
			}
		}
	}
}

// TestDefaultAnswersPerfModel: the default store of a topology answers
// exactly what the performance model does, for every model, batch class,
// GPU count and parallelism mode — model-parallel jobs included, whose
// 1.5× interference a mode-blind key once replaced with the data-parallel
// entry's.
func TestDefaultAnswersPerfModel(t *testing.T) {
	mix, err := topology.ParseMix("minsky:24+dgx1:12+pcie:24")
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := topology.HeterogeneousCluster(mix)
	if err != nil {
		t.Fatal(err)
	}
	for key, topo := range map[string]*topology.Topology{
		"minsky": topology.Power8Minsky(), "dgx1": topology.DGX1(), "pcie": topology.PCIeBox(),
		"minsky:1000": topology.Cluster(1000, topology.KindMinsky), "mix[minsky:24+dgx1:12+pcie:24]": mixed,
	} {
		s := Default(topo)
		for m := perfmodel.NN(0); m < perfmodel.NumNN; m++ {
			for c := jobgraph.BatchTiny; c <= jobgraph.BatchBig; c++ {
				for g := 0; g <= 22; g++ {
					for _, mode := range []perfmodel.Parallelism{perfmodel.DataParallel, perfmodel.ModelParallel} {
						tr := perfmodel.Traits{Model: m, Class: c, GPUs: g, Mode: mode}
						if gotS, gotP := s.Sensitivity(tr), s.Pressure(tr); gotS != perfmodel.Sensitivity(tr) || gotP != perfmodel.Pressure(tr) {
							t.Fatalf("%s, %+v: store (%v, %v), model (%v, %v)", key, tr, gotS, gotP, perfmodel.Sensitivity(tr), perfmodel.Pressure(tr))
						}
					}
				}
			}
		}
	}
}
