//go:build race

package eventlog

// raceEnabled reports a -race build, where exact allocation counts of
// pooled paths do not hold.
const raceEnabled = true
