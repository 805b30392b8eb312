package topology

import (
	"sync"
	"testing"
)

// TestSharedTopologyConcurrentReaders hammers one shared topology from
// many goroutines through every read API the sweep engine's substrate
// cache exposes to concurrent workers — most importantly the lazily
// memoized extreme allocations. Run under -race (CI does), this test
// fails if sharing a built *Topology between workers is ever unsafe.
func TestSharedTopologyConcurrentReaders(t *testing.T) {
	topos := []*Topology{
		Cluster(6, KindMinsky),
		mustHetero(t, []MachineSpec{{Kind: KindMinsky, Count: 2}, {Kind: KindDGX1, Count: 1}}),
	}
	for _, topo := range topos {
		topo := topo
		t.Run(topo.Name, func(t *testing.T) {
			const workers = 8
			n := topo.NumGPUs()
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				w := w
				go func() {
					defer wg.Done()
					for round := 0; round < 20; round++ {
						// Every worker asks for every size so the memoized
						// entries are initialized under maximal contention.
						for g := 1; g <= 8; g++ {
							best := topo.BestAllocation(g)
							if len(best) != g {
								t.Errorf("BestAllocation(%d) returned %d GPUs", g, len(best))
								return
							}
							if c := topo.BestCommCost(g); g >= 2 && c <= 0 {
								t.Errorf("BestCommCost(%d) = %g, want > 0", g, c)
								return
							}
						}
						a := (w * 3) % n
						b := (w*7 + round) % n
						if d := topo.Distance(a, b); a != b && d <= 0 {
							t.Errorf("Distance(%d,%d) = %g, want > 0", a, b, d)
							return
						}
						topo.EffectiveBandwidth((w+round)%n, w%n)
						topo.P2P(w%n, (w+1)%n)
						if topo.MinPairDistance() <= 0 {
							t.Error("degenerate minimum pair distance")
							return
						}
						topo.PairwiseDistance(topo.BestAllocation(4))
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestExtremeAllocationStableUnderConcurrency asserts the memoized results
// are identical no matter which goroutine initialized them: the cache must
// never expose a partially built or divergent entry.
func TestExtremeAllocationStableUnderConcurrency(t *testing.T) {
	topo := Cluster(4, KindMinsky)
	want := map[int][]int{}
	for g := 1; g <= 8; g++ {
		want[g] = append([]int(nil), topo.BestAllocation(g)...)
	}
	fresh := Cluster(4, KindMinsky)
	var wg sync.WaitGroup
	results := make([][][]int, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 1; g <= 8; g++ {
				results[w] = append(results[w], fresh.BestAllocation(g))
			}
		}()
	}
	wg.Wait()
	for w := range results {
		for gi, set := range results[w] {
			g := gi + 1
			if len(set) != len(want[g]) {
				t.Fatalf("worker %d size %d: got %v want %v", w, g, set, want[g])
			}
			for i := range set {
				if set[i] != want[g][i] {
					t.Fatalf("worker %d size %d: got %v want %v", w, g, set, want[g])
				}
			}
		}
	}
}

func mustHetero(t *testing.T, specs []MachineSpec) *Topology {
	t.Helper()
	topo, err := HeterogeneousCluster(specs)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}
