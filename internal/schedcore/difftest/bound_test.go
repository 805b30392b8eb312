package difftest

import (
	"math"
	"testing"

	"gputopo/internal/cluster"
	"gputopo/internal/core"
	"gputopo/internal/job"
	"gputopo/internal/perfmodel"
	"gputopo/internal/schedcore"
)

// TestUtilityBoundAdmissible replays both trace families through the
// reference, whose sweep maps every host, and before each placement it
// scores — on the live state or a trial clone — maps the job onto every
// machine with room itself: core.Mapper.UtilityBound must be at least
// each utility, compared as plain floats. The Core's sweep skips a
// machine on that bound, so a bound below a utility it could have won
// with is a decision changed.
func TestUtilityBoundAdmissible(t *testing.T) {
	for _, fam := range families {
		var cases, tight int
		for seed := 0; seed < fam.count(); seed++ {
			tr := fam.gen(uint64(seed))
			disc, err := schedcore.ParseDiscipline(tr.Discipline)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReference(tr.Policy, tr.Topology, disc, tr.Preempt)
			if err != nil {
				t.Fatal(err)
			}
			var pl core.Placement
			ref.attempted = func(j *job.Job, st *cluster.State) {
				if !j.SingleNode || j.AntiCollocate {
					return
				}
				for m := 0; m < st.Topology().NumMachines(); m++ {
					if st.FreeCountOnMachine(m) < j.GPUs {
						continue
					}
					free := st.FreeGPUsOnMachine(m)
					if ref.mapper.PlaceInto(&pl, j, st, free) != nil {
						continue
					}
					bound := ref.mapper.UtilityBound(j, st, m, free)
					if bound < pl.Utility {
						t.Fatalf("%s: %s on machine %d (free %v): bound %v < utility %v of %v",
							tr, j.ID, m, free, bound, pl.Utility, pl.GPUs)
					}
					cases++
					if bound == pl.Utility {
						tight++
					}
				}
			}
			replay(t, tr, ref, func([]Placement) {})
		}
		t.Logf("%s traces: %d placements checked, %d with the bound tight", fam.name, cases, tight)
		if cases < 4*fam.count() {
			t.Errorf("%s traces: only %d placements checked across %d traces", fam.name, cases, fam.count())
		}
	}
}

// TestBoundMemoEqualsUtilityBound replays both trace families through the
// reference and, before each placement it scores — on the live state or a
// trial clone — bounds every class of the state's index that can take the
// job, at each of its members, through core.Mapper.ClassBound: the result
// must equal UtilityBound there, compared with math.Float64bits. The Core's
// sweep bounds every class through ClassBound and its placer's memo; here
// one memo lasts the whole trace and serves the live state and its clones
// alike, whose class ids part ways once they diverge, so an entry used
// after its fingerprint changed shows as a bound changed.
func TestBoundMemoEqualsUtilityBound(t *testing.T) {
	type shapeClass struct {
		shape perfmodel.Traits
		name  string
	}
	for _, fam := range families {
		var cases, repeats int
		for seed := 0; seed < fam.count(); seed++ {
			tr := fam.gen(uint64(seed))
			disc, err := schedcore.ParseDiscipline(tr.Discipline)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReference(tr.Policy, tr.Topology, disc, tr.Preempt)
			if err != nil {
				t.Fatal(err)
			}
			var memo core.BoundMemo
			seen := map[shapeClass]bool{}
			ref.attempted = func(j *job.Job, st *cluster.State) {
				if !j.SingleNode || j.AntiCollocate {
					return
				}
				for id, ms := range st.Classes() {
					if len(ms) == 0 || st.FreeCountOnMachine(int(ms[0])) < j.GPUs {
						continue
					}
					k := shapeClass{j.Traits(), st.ClassName(id)}
					if seen[k] {
						repeats++
					}
					seen[k] = true
					for _, m := range ms {
						got := ref.mapper.ClassBound(&memo, j, st, id, int(m))
						want := ref.mapper.UtilityBound(j, st, int(m), st.FreeGPUsOnMachine(int(m)))
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: %s on class %d, machine %d: ClassBound %v, UtilityBound %v",
								tr, j.ID, id, m, got, want)
						}
						cases++
					}
				}
			}
			replay(t, tr, ref, func([]Placement) {})
		}
		t.Logf("%s traces: %d bounds checked, %d classes bounded again for a shape", fam.name, cases, repeats)
		if cases < 4*fam.count() || repeats < fam.count() {
			t.Errorf("%s traces: only %d bounds checked and %d classes bounded again across %d traces", fam.name, cases, repeats, fam.count())
		}
	}
}
