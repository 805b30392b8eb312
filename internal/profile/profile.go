// Package profile implements the job profile of §4.2: for each workload
// class it records the interference sensitivity and pressure the
// co-scheduling prediction reads. The paper generates these profiles
// experimentally (95th percentile of five runs); here they are tabulated
// from the calibrated performance model through the same interface a
// measurement campaign would populate. A job's ideal solo time is not
// profiled: the simulator's idealTime is the one definition.
package profile

import (
	"gputopo/internal/jobgraph"
	"gputopo/internal/perfmodel"
	"gputopo/internal/topology"
)

// Key identifies a workload class: model × batch class × GPU count ×
// parallelism mode.
type Key struct {
	Model perfmodel.NN
	Class jobgraph.BatchClass
	GPUs  int
	Mode  perfmodel.Parallelism
}

// KeyOf returns the profile key of a job's traits.
func KeyOf(t perfmodel.Traits) Key {
	return Key{Model: t.Model, Class: t.Class, GPUs: t.GPUs, Mode: t.Mode}
}

// Entry is one workload-class profile.
type Entry struct {
	Key Key
	// Sensitivity and Pressure parameterize the interference prediction
	// (suffered and caused, respectively), as calibrated from
	// co-location measurements (Figure 6).
	Sensitivity float64
	Pressure    float64
}

// Store holds the profiles of all known workload classes.
type Store struct {
	entries map[Key]Entry
	// dense mirrors the interference parameters of the entries whose key
	// is in range — every model and batch class, GPU counts up to
	// denseGPUs — so the placement hot path reads them without hashing a
	// Key. Add keeps it in step with entries.
	dense [perfmodel.NumNN][denseClasses][denseGPUs + 1]denseParams
}

const (
	denseClasses = int(jobgraph.BatchBig) + 1
	denseGPUs    = 16
)

// denseParams is one dense cell: an entry's interference parameters, ok
// when the entry exists.
type denseParams struct {
	sens, pres float64
	ok         bool
}

// denseCell returns the dense cell of k, or nil when k is out of range.
func (s *Store) denseCell(k Key) *denseParams {
	if k.Mode != perfmodel.DataParallel || k.Model < 0 || k.Model >= perfmodel.NumNN || k.Class < 0 || int(k.Class) >= denseClasses || k.GPUs < 0 || k.GPUs > denseGPUs {
		return nil
	}
	return &s.dense[k.Model][k.Class][k.GPUs]
}

// NewStore returns an empty profile store.
func NewStore() *Store {
	return &Store{entries: make(map[Key]Entry)}
}

// Generate populates a store with data-parallel profiles for every (model,
// batch class, GPU count) combination up to maxGPUs, tabulated from the
// performance model — the paper's "combinatorial collocation of a set of
// known applications" made cheap by simulation. The values depend on no
// topology; the unread topo parameter stays because the frozen
// cmd/topoperf passes one (docs/performance.md, "The frozen benchmark
// contract").
func Generate(_ *topology.Topology, maxGPUs int) *Store {
	s := NewStore()
	for m := perfmodel.NN(0); m < perfmodel.NumNN; m++ {
		for c := jobgraph.BatchTiny; c <= jobgraph.BatchBig; c++ {
			for g := 1; g <= maxGPUs; g++ {
				t := perfmodel.Traits{Model: m, Class: c, GPUs: g}
				s.Add(Entry{Key: KeyOf(t), Sensitivity: perfmodel.Sensitivity(t), Pressure: perfmodel.Pressure(t)})
			}
		}
	}
	return s
}

// Default returns the store every driver — both simulation engines, the
// sweep substrate cache, the serving domains — schedules a topology with
// when it is handed none: profiles for jobs of up to eight GPUs (the
// largest single machine modeled, the DGX-1) or as many as the topology
// has. Sensitivity and Pressure answer larger and model-parallel requests
// from the performance model.
func Default(topo *topology.Topology) *Store {
	return Generate(topo, min(8, topo.NumGPUs()))
}

// Add inserts or replaces an entry.
func (s *Store) Add(e Entry) {
	s.entries[e.Key] = e
	if c := s.denseCell(e.Key); c != nil {
		*c = denseParams{sens: e.Sensitivity, pres: e.Pressure, ok: true}
	}
}

// Lookup returns the entry for the key. Unknown classes fall back to a
// prediction from the nearest known class (same model, GPU count and mode,
// closest batch class, the lower one when two are equally close) — the
// paper's "performance prediction for unknown jobs using the models from
// known applications" (§4.2).
func (s *Store) Lookup(k Key) (Entry, bool) {
	if e, ok := s.entries[k]; ok {
		return e, true
	}
	// Nearest batch class with same model, GPU count and mode. The map is
	// ranged in no particular order, so the minimum is taken over
	// (distance, class): a unique key, hence one answer.
	bestDist := -1
	var best Entry
	for have, e := range s.entries {
		if have.Model != k.Model || have.GPUs != k.GPUs || have.Mode != k.Mode {
			continue
		}
		d := int(have.Class) - int(k.Class)
		if d < 0 {
			d = -d
		}
		if bestDist == -1 || d < bestDist || (d == bestDist && have.Class < best.Key.Class) {
			bestDist, best = d, e
		}
	}
	if bestDist >= 0 {
		best.Key = k
		return best, true
	}
	return Entry{}, false
}

// Len returns the number of stored entries.
func (s *Store) Len() int { return len(s.entries) }

// interferenceParams returns the stored sensitivity and pressure of the
// job's workload class — Lookup's answer, read from the dense table when
// the key is there — or the performance model's own when the store knows
// no class of the job's model, GPU count and mode.
func (s *Store) interferenceParams(t perfmodel.Traits) (sens, pres float64) {
	k := KeyOf(t)
	if c := s.denseCell(k); c != nil && c.ok {
		return c.sens, c.pres
	}
	if e, ok := s.Lookup(k); ok {
		return e.Sensitivity, e.Pressure
	}
	return perfmodel.Sensitivity(t), perfmodel.Pressure(t)
}

// Sensitivity returns how strongly a job with the given traits suffers
// co-location interference, per its profile.
func (s *Store) Sensitivity(t perfmodel.Traits) float64 {
	sens, _ := s.interferenceParams(t)
	return sens
}

// Pressure returns how much co-location interference a job with the given
// traits causes, per its profile.
func (s *Store) Pressure(t perfmodel.Traits) float64 {
	_, pres := s.interferenceParams(t)
	return pres
}
