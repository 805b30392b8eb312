//go:build race

package schedcore

// raceEnabled reports a -race build, where exact allocation counts of
// pooled paths do not hold.
const raceEnabled = true

// victimCycleAllocs bounds TestVictimSearchAllocs' cycle from above: the
// race detector's dropped sync.Pool items put it at ≈ 240–310 objects.
const victimCycleAllocs = 600
