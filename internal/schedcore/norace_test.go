//go:build !race

package schedcore

const raceEnabled = false

// victimCycleAllocs is exactly what TestVictimSearchAllocs' cycle
// allocates.
const victimCycleAllocs = 42
